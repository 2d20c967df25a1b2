"""Closed-loop runner, statistics, strict JSON and environment capture.

Nothing here knows about a particular workload: a workload hands the loop
a list of items, a function that runs one item through lcwcheck, and a
function that checks the output against a reference.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"


def source_available() -> bool:
    return (SRC / "lcwcheck" / "__init__.py").is_file()


def use_checkout_source():
    """Import lcwcheck from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lcwcheck

    if Path(lcwcheck.__file__).resolve().parent != (SRC / "lcwcheck").resolve():
        raise RuntimeError(f"lcwcheck imported from {lcwcheck.__file__}, not from {SRC}")
    return lcwcheck


def child_env() -> dict:
    """Environment for child interpreters: the checkout's source first on
    the path, everything else (BLAS thread settings included) as the user
    has it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# -- statistics -----------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it.  With 100 samples, p90 is the 90th smallest
    and 10 samples lie beyond it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def fail_ratio(failed, attempted):
    if attempted < 1:
        raise ValueError("no items attempted")
    return failed / attempted


# -- strict JSON ----------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json_loads(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


# -- the closed loop --------------------------------------------------------------


@dataclass
class LoopResult:
    latencies: list  # seconds per item; math.inf for an item that failed
    attempted: int
    failed: int
    wall: float  # seconds from the first item's start to the last item's end
    failures: list = field(default_factory=list)  # (item label, message), first few

    @property
    def completed(self):
        return self.attempted - self.failed

    @property
    def throughput(self):
        return self.completed / self.wall

    def latency_ms(self, q):
        """Percentile latency in ms.  A failed item counts as slower than
        any completed one; a percentile that lands on one reads as the
        whole run, the latency limit that item missed."""
        value = percentile(self.latencies, q)
        return (value if math.isfinite(value) else self.wall) * 1e3


def closed_loop(items, run, check, seconds, max_items=None, tracer=None, max_failures_kept=20):
    """One client, one item at a time, until ``seconds`` have passed or
    ``max_items`` items are done, and at least one item.

    ``run(item)`` is the timed call into lcwcheck; ``check(item, output)``
    returns None when the output matches the reference and a message
    otherwise.  Exceptions from either count as failures and never end the
    loop.  Items are taken in order, wrapping around.
    """
    latencies, failures = [], []
    failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i == 0 or (time.perf_counter() < deadline and (max_items is None or i < max_items)):
        item = items[i % len(items)]
        i += 1
        if tracer is not None:
            tracer.begin_item(i)
        t0 = time.perf_counter()
        try:
            output = run(item)
        except Exception as exc:  # a raising item is a counted failure
            output, message = None, f"{type(exc).__name__}: {exc}"
        else:
            message = None
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_item(t0, t1)
        if message is None:
            try:
                message = check(item, output)
            except Exception as exc:
                message = f"check raised {type(exc).__name__}: {exc}"
        if message is None:
            latencies.append(t1 - t0)
        else:
            latencies.append(math.inf)
            failed += 1
            if len(failures) < max_failures_kept:
                failures.append((getattr(item, "label", repr(item)), message))
    wall = time.perf_counter() - start
    return LoopResult(latencies, len(latencies), failed, wall, failures)


def round_robin(columns):
    """Interleave per-class item lists so that every prefix of the result
    holds the classes in equal numbers (within one item)."""
    out = []
    for row in range(max(len(c) for c in columns)):
        out.extend(c[row] for c in columns if row < len(c))
    return out


# -- environment ----------------------------------------------------------------


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_library(np):
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return None


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "lcwcheck").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed):
    import numpy as np

    blas_env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": _blas_library(np),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in blas_env},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }
