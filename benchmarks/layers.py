"""The layer probe: direct calls into each module's public functions on
inputs made from the seed, timed one layer at a time.

The probe is the same on every workload, so a per-layer number means the
same thing wherever it is read.  Each time is the median of ``reps``
calls.  Verdicts the probe computes are checked like workload items and
their failures are counted, never raised.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

import lcwcheck
import lcwcheck.catalog
import lcwcheck.pipeline

from harness import child_env
from workloads import FAILS, PASSES, cy_target, near_flat_metric, run_cli_inprocess, weyl_target

GRID_POINTS = 640  # size of the positivity grid of a prescription (10 radii x 64 directions)
PROCESS_TIMEOUT_S = 120


def _median_ms(fn, reps):
    times = []
    out = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3, out


def _process_ms(code, reps):
    """Median wall time of a fresh ``python -c CODE``, and what each run
    printed."""
    times, printed = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=PROCESS_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
        if out.returncode != 0:
            raise RuntimeError(f"python -c {code!r} exited {out.returncode}: {out.stderr[-500:]}")
        printed.append(out.stdout)
    return statistics.median(times) * 1e3, printed


class Probe:
    def __init__(self, seed, workdir, reps=3):
        self.rng = np.random.default_rng([seed, 1])
        self.workdir = str(workdir)
        self.reps = reps
        self.metrics = {}
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)

    def put(self, name, value, unit="ms"):
        self.metrics[name] = {"value": float(value), "unit": unit}

    def expect(self, label, verdict, want):
        self.attempted += 1
        if verdict != want:
            self.failures.append((f"probe {label}", f"verdict {verdict}, expected {want}"))

    def run(self):
        files = self.pipeline_and_obstructions()
        self.dsl_and_perturbation(files)
        self.processes_and_cli(files)
        return self.metrics

    def pipeline_and_obstructions(self):
        files = {}
        for n in (3, 4, 5, 6):
            fails, passes = near_flat_metric(n, "fails", self.rng), near_flat_metric(n, "passes", self.rng)
            point = self.rng.uniform(-0.2, 0.2, n)
            stages = ["christoffel", "riemann", "weyl", "cotton", "cy" if n == 3 else "divw"]
            times = {s: [] for s in ["init"] + stages}
            for _ in range(self.reps):
                t = time.perf_counter()
                pl = lcwcheck.pipeline.JetPipeline(fails, point)
                times["init"].append(time.perf_counter() - t)
                for stage, call in zip(stages, (pl.gamma, pl.riemann, pl.weyl, pl.cotton,
                                                pl.cotton_york if n == 3 else pl.div_weyl)):
                    t = time.perf_counter()
                    call()
                    times[stage].append(time.perf_counter() - t)
            for stage, ts in times.items():
                self.put(f"pipeline.{stage}_ms.d{n}", statistics.median(ts) * 1e3)
            ms, snap = _median_ms(lambda: lcwcheck.compute_snapshot(fails, point), self.reps)
            self.put(f"pipeline.snapshot_ms.d{n}", ms)
            ms, _ = _median_ms(lambda: lcwcheck.snapshot_to_json(snap), self.reps)
            self.put(f"pipeline.json_ms.d{n}", ms)
            if n == 3:
                ms, rep = _median_ms(lambda: lcwcheck.cotton_york_test(fails, point), self.reps)
                self.put("obstructions.cy_test_ms", ms)
                self.expect("cy_test.d3", rep.verdict_string, FAILS)
            else:
                ms, op = _median_ms(lambda: lcwcheck.operator_from_0_4(snap.weyl04, g=snap.g), self.reps)
                self.put(f"bivectors.operator_ms.d{n}", ms)
                ms, rep = _median_ms(lambda: lcwcheck.eigenflag_test(op), self.reps)
                self.put(f"obstructions.eigenflag_ms.d{n}.fails", ms)
                self.expect(f"eigenflag.d{n}.fails", rep.verdict_string, FAILS)
                psnap = lcwcheck.compute_snapshot(passes, point)
                pop = lcwcheck.operator_from_0_4(psnap.weyl04, g=psnap.g)
                ms, rep = _median_ms(lambda: lcwcheck.eigenflag_test(pop), self.reps)
                self.put(f"obstructions.eigenflag_ms.d{n}.passes", ms)
                self.expect(f"eigenflag.d{n}.passes", rep.verdict_string, PASSES)
            files[n] = os.path.join(self.workdir, f"probe-d{n}.metric")
            with open(files[n], "w") as fh:
                fh.write(lcwcheck.metric_to_text(fails))
        return files

    def dsl_and_perturbation(self, files):
        texts = []
        for path in files.values():
            with open(path) as fh:
                texts.append(fh.read())
        ms, _ = _median_ms(lambda: [lcwcheck.parse_metric(t) for t in texts], self.reps)
        self.put("dsl.parse_ms", ms)

        base = lcwcheck.random_metric_near_flat(4, self.rng, amplitude=0.03)
        point = self.rng.uniform(-0.1, 0.1, 4)
        ms, _ = _median_ms(lambda: lcwcheck.normal_coordinates(base, point), self.reps)
        self.put("perturbation.normal_chart_ms", ms)
        cp = lcwcheck.CurvaturePrescription(base=base, point=point, target_r4=weyl_target(self.rng, "fails"))
        ms, res = _median_ms(lambda: lcwcheck.prescribe_curvature(cp), self.reps)
        self.put("perturbation.prescribe_ms.curv", ms)
        cc = lcwcheck.CottonPrescription(
            base=lcwcheck.get_entry("sol").metric,
            point=self.rng.uniform(-0.1, 0.1, 3),
            target_cy=cy_target(self.rng, "fails"),
        )
        ms, _ = _median_ms(lambda: lcwcheck.prescribe_cotton_york(cc), self.reps)
        self.put("perturbation.prescribe_ms.cy", ms)

        bumped = res.metric
        origin = res.evaluation_point
        ms, _ = _median_ms(lambda: bumped.eval_jets(origin), self.reps)
        self.put("dsl.eval_jets_ms", ms)
        dirs = self.rng.standard_normal((GRID_POINTS, 4))
        grid = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * self.rng.uniform(0.1, 1.0, (GRID_POINTS, 1))
        ms, _ = _median_ms(lambda: bumped.eval_matrix_many(grid), self.reps)
        self.put("dsl.eval_grid_ms", ms)
        ms, rep = _median_ms(lambda: lcwcheck.auto_test(bumped, origin), self.reps)
        self.put("obstructions.auto_ms", ms)
        self.expect("auto.bumped.d4", rep.verdict_string, FAILS)

    def processes_and_cli(self, files):
        interp, _ = _process_ms("pass", self.reps)
        self.put("cli.interpreter_ms", interp)
        imported, _ = _process_ms("import lcwcheck.cli", self.reps)
        self.put("cli.import_ms", imported - interp)
        code = (
            "import time, lcwcheck.catalog as c; t = time.perf_counter(); "
            "c.get_entry('nil'); print(time.perf_counter() - t)"
        )
        _, printed = _process_ms(code, self.reps)
        self.put("catalog.registry_ms", statistics.median(float(p) for p in printed) * 1e3)

        times = []
        for path in files.values():
            for command in ("tensors", "check"):
                t0 = time.perf_counter()
                code, out = run_cli_inprocess((command, "--metric", path, "--format", "json"))
                times.append(time.perf_counter() - t0)
                self.attempted += 1
                want = 0 if command == "tensors" else 10
                if code != want or not out.strip():
                    self.failures.append((f"probe cli {command} {os.path.basename(path)}", f"exit code {code}"))
        self.put("cli.command_ms", statistics.median(times) * 1e3)
