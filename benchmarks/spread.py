"""Run the benchmark over several seeds and report each end-to-end
metric's median, quartiles and spread against the bounds in
BENCHMARK.json.

    python3 benchmarks/spread.py --workloads verdicthd cli --seeds 1 2 3 4 5 \\
        --out benchmarks/results/spread-a.json
    python3 benchmarks/spread.py --compare benchmarks/results/spread-a.json \\
        benchmarks/results/spread-b.json

The spread is (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``.  ``--compare`` checks that no
metric's median in the second summary is worse than in the first by more
than its bound.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def measure(args, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    summary = {"seeds": args.seeds, "seconds": seconds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        lines = [run_once(workload, seed, seconds) for seed in args.seeds]
        rows = {}
        for name in bounds:
            rows[name] = summarize([line["metrics"][name]["value"] for line in lines])
        summary["workloads"][workload] = {
            "correct": all(line["correct"] for line in lines),
            "attempted": [line["attempted"] for line in lines],
            "failed": [line["failed"] for line in lines],
            "metrics": rows,
        }
        print(f"{workload}: attempted {summary['workloads'][workload]['attempted']} "
              f"failed {sum(summary['workloads'][workload]['failed'])}")
        for name, row in rows.items():
            if name != "setup_s" and row["spread"] > bounds[name]:
                flag = "  <-- above the bound"
            elif name != "setup_s" and row["spread"] > bounds[name] / 3:
                flag = "  <-- above a third of the bound"
            else:
                flag = ""
            ok &= flag == ""
            print(f"  {name:<24} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g}"
                  f" spread {row['spread']:.4f} (bound {bounds[name]}){flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return ok


def compare(paths, spec):
    first, second = (json.loads(Path(p).read_text()) for p in paths)
    ok = True
    for m in spec["end_to_end"]:
        for workload, row in first["workloads"].items():
            if workload not in second["workloads"]:
                continue
            a = row["metrics"][m["name"]]["median"]
            b = second["workloads"][workload]["metrics"][m["name"]]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "" if worse <= m["bound"] else "  <-- worse than the bound"
            ok &= flag == ""
            print(f"{workload:<10} {m['name']:<24} {a:<12.6g} -> {b:<12.6g} worse by {worse:+.4f}"
                  f" (bound {m['bound']}){flag}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=None)
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        return 0 if compare(args.compare, spec) else 1
    args.workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    return 0 if measure(args, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
