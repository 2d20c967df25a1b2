"""lcwcheck benchmark: one client in a closed loop, every output checked.

    python3 benchmarks/run.py --workload verdicthd --seed 1 --seconds 25 --trace 0

Run it from anywhere in a checkout; it imports lcwcheck from the
checkout's ``src`` and from nowhere else, and exits 2 without a result
when that is missing.  Workloads: verdict3d, verdicthd, perturb, cli (see
workloads.py and BENCHMARK.json for why each one is there).

``--trace 0`` prints the end-to-end metrics: throughput, p50 and p90
latency, set-up time (median of several fresh interpreters, each timed
until its first item is done) and peak RSS.  ``--trace 1`` prints the
per-layer metrics: half the time untraced and half with spans on
lcwcheck's public functions (the throughput difference is the tracing
overhead), then the layer probe of layers.py.  The last line of stdout is
one JSON object; a copy with the environment goes to
benchmarks/results/, and a traced run writes its spans there too.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time

import harness

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 150
SELF_TIME_MODULES = ("dsl", "jets", "pipeline", "bivectors", "obstructions")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("verdict3d", "verdicthd", "perturb", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def prepare(workload, seed, workdir):
    """Everything between interpreter start and the first timed item:
    the catalog registry, the inputs, and one warm-up item."""
    import lcwcheck

    lcwcheck.list_catalog()
    items = workload.setup(seed, workdir)
    warm = harness.closed_loop(items, workload.run, workload.check, 0, max_items=1)
    return items, warm


def measure_setup_s(name, seed):
    """Median, over fresh interpreters, of the time from spawning one to
    the end of its warm-up item."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned = time.monotonic()
        out = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe exited {out.returncode}: {out.stderr[-2000:]}")
        samples.append(float(out.stdout.split()[-1]) - spawned)
    return statistics.median(samples), samples


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def untraced_run(workload, args, workdir):
    setup_s, setup_samples = measure_setup_s(args.workload, args.seed)
    items, warm = prepare(workload, args.seed, workdir)
    loop = harness.closed_loop(items, workload.run, workload.check, args.seconds)
    metrics = {
        "throughput_items_per_s": metric(loop.throughput, "1/s"),
        "latency_p50_ms": metric(loop.latency_ms(50), "ms"),
        "latency_p90_ms": metric(loop.latency_ms(90), "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(workload.peak_rss_mb(), "MB"),
    }
    extra = {"setup_samples_s": setup_samples, "latency_samples": loop.attempted}
    return metrics, [warm, loop], extra


def tracing_overhead_pct(plain, traced):
    """Extra time the traced loop took over the items both loops ran (both
    start at the first item), as a share of the untraced time: the drop in
    throughput that tracing causes on identical work.  Items that failed in
    either loop are left out; 0 when none is left."""
    pairs = [(a, b) for a, b in zip(plain.latencies, traced.latencies) if math.isfinite(a + b)]
    base = sum(a for a, _ in pairs)
    return (sum(b for _, b in pairs) - base) / base * 100.0 if pairs else 0.0


def traced_run(workload, args, workdir):
    from layers import Probe
    from tracing import Tracer

    items, warm = prepare(workload, args.seed, workdir)
    run = workload.run_traced
    half = args.seconds / 2.0
    plain = harness.closed_loop(items, run, workload.check, half)
    tracer = Tracer().install()
    try:
        cycle = harness.closed_loop(items, run, workload.check, float("inf"), max_items=workload.cycle)
        mul_calls, mul_seconds = tracer.mul_calls, tracer.mul_seconds
        tracer.reset()
        traced = harness.closed_loop(items, run, workload.check, half, tracer=tracer)
    finally:
        tracer.remove()
    self_s = tracer.self_seconds_by_module()
    spans_path = harness.RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
    tracer.write(spans_path, {"workload": args.workload, "seed": args.seed, "items": traced.attempted})

    probe = Probe(args.seed, workdir)
    metrics = probe.run()
    metrics["jets.mul_calls"] = metric(mul_calls, "count")
    metrics["jets.mul_ms"] = metric(mul_seconds * 1e3, "ms")
    for module in SELF_TIME_MODULES:
        metrics[f"{module}.self_ms"] = metric(self_s.get(module, 0.0) / traced.attempted * 1e3, "ms")
    metrics["trace.overhead_pct"] = metric(tracing_overhead_pct(plain, traced), "%")
    extra = {
        "throughput_untraced": plain.throughput,
        "throughput_traced": traced.throughput,
        "cycle_items": cycle.attempted,
        "self_ms_per_item": {m: s / traced.attempted * 1e3 for m, s in sorted(self_s.items())},
        "spans_file": spans_path.name,
    }
    return metrics, [warm, plain, cycle, traced, probe], extra


def setup_probe(workload, args, workdir):
    prepare(workload, args.seed, workdir)
    print(time.monotonic(), flush=True)
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not harness.source_available():
        print(f"error: {harness.SRC / 'lcwcheck'} is missing; run inside a checkout", file=sys.stderr)
        return 2
    harness.use_checkout_source()
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    harness.RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.RESULTS, prefix="work-") as workdir:
        if args.setup_probe:
            return setup_probe(workload, args, workdir)
        if args.trace:
            metrics, loops, extra = traced_run(workload, args, workdir)
        else:
            metrics, loops, extra = untraced_run(workload, args, workdir)
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    env = harness.environment(args.seed)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "fail_ratio": harness.fail_ratio(failed, attempted),
        "failures": [f for loop in loops for f in loop.failures][:20],
        **extra,
        **line,
    }
    out_path = harness.RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, allow_nan=False) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  fail_ratio {record['fail_ratio']:g} ({failed} of {attempted} items)")
    if "latency_samples" in extra:
        n = extra["latency_samples"]
        print(f"  latency samples {n}, {n - math.ceil(0.9 * n)} beyond p90")
    for label, message in record["failures"][:5]:
        print(f"    failed {label}: {message}")
    print(
        f"  python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
        f"blas {env['blas']} ({env['blas_threads']} threads)  commit {env['git_commit']}"
    )
    print(json.dumps(line, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
