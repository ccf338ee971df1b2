"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads zigzag triangle --seeds 1-10
    python3 perfbench/spread.py --workloads chain --seeds 1-2 --trace 1

For every metric it prints the median and quartiles over runs with the
sample count.  For end-to-end metrics it adds the quartile spread as a
share of the median, a third of the metric's bound in BENCHMARK.json for
comparison, and every run's value in seed order.
Traced runs also list the per-layer counts that repeated exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout)
                raise SystemExit(f"{workload} seed {seed}: output check failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload}: {len(args.seeds)} runs, trace {args.trace}")
        for name, vals in values.items():
            if len(set(vals)) == 1:
                print(f"{name:45s} {vals[0]:.6g}  (repeats exactly)")
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            line = f"{name:45s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
            if name in bounds and med:
                line += (f"  spread {(q3 - q1) / med:.3f}"
                         f"  (bound/3 {bounds[name] / 3:.3f})\n    runs: "
                         + " ".join(f"{v:.4g}" for v in vals))
            print(line)


if __name__ == "__main__":
    main()
