"""trispin benchmark: one workload run, measured end to end or traced.

    python3 perfbench/run.py --workload zigzag --seed 1 --seconds 30 --trace 0

Each run starts fresh worker processes (``worker.py``) with the
environment fixed: one BLAS thread, ``TRISPIN_THREADS`` unset, no
bytecode written.  Four extra processes only set up (import and warm up
every layer), each pinned to the next usable core in turn, so that
``setup_s`` is a median of five samples.  The worker then runs
closed-loop passes of the workload, one client, each pass on the next
usable core, until the next pass would overrun ``--seconds``, and checks
every output.

With ``--trace 0`` the metrics are the end-to-end ones: the fastest
pass, the set-up median and the peak RSS.  With ``--trace 1`` the worker
alternates untraced and traced passes; the metrics are per-layer call
counts, self times and counts from the fastest traced pass, and the
tracing overhead against the fastest untraced pass.  Every metric is printed by name with its unit; the last line of standard
output is the JSON result.  Any error exits non-zero without a result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COUNT_UNITS, target_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("zigzag", "triangle", "chain")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "heavy_s": "s", "light_s": "s"}
SETUP_PROBES = 4
DEADLINE_S = 170.0


def worker_env():
    env = dict(os.environ)
    env.pop("TRISPIN_THREADS", None)
    env.pop("PYTHONPATH", None)
    # one thread, so that a pass runs on the one core it is pinned to
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(argv, env, deadline, cpu=None):
    """Run worker.py to completion, pinned to ``cpu`` if given, and
    return its JSON record."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()),
                          preexec_fn=pin)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(argv)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=10)
    return proc.stdout.strip() or "unknown"


def spread(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def show(name, value, unit, note=""):
    print(f"{name} = {value:.6g} {unit}{note}")


def end_to_end(record, setup_samples):
    """Set-up is the median of its samples; pass times are the fastest
    pass, which filters second-to-second noise from other tenants of a
    shared host better than a median over passes does.  The median and
    quartiles over passes are printed alongside."""
    samples = {"setup_s": setup_samples,
               "peak_rss_mb": [record["peak_rss_mb"]]}
    for key in ("wall_s", "heavy_s", "light_s"):
        samples[key] = [p[key] for p in record["passes"] if not p["traced"]]
    metrics = {}
    for name, unit in END_TO_END.items():
        med, q1, q3 = spread(samples[name])
        value = med if name == "setup_s" else min(samples[name])
        what = {"setup_s": "set-ups", "peak_rss_mb": "worker"}.get(name,
                                                                  "passes")
        show(name, value, unit, f"  (min {min(samples[name]):.6g}, median "
                                f"{med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, "
                                f"n={len(samples[name])} {what})")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def per_layer(record):
    trace = record["trace"]
    metrics = {}
    for name in target_names():
        row = trace["functions"][name]
        metrics[f"{name}.calls"] = {"value": row["calls"], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": row["self_s"], "unit": "s"}
    for name, unit in COUNT_UNITS.items():
        metrics[name] = {"value": trace["counts"][name], "unit": unit}
    untraced = min(p["wall_s"] for p in record["passes"] if not p["traced"])
    traced = trace["wall_s"]
    metrics["trace.wall_s"] = {"value": traced, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    metrics["trace.self_sum_s"] = {"value": trace["self_sum_s"], "unit": "s"}
    metrics["trace.unattributed_s"] = {
        "value": traced - trace["self_sum_s"], "unit": "s"}
    metrics["trace.spans"] = {"value": trace["spans"], "unit": "count"}
    for name, m in metrics.items():
        show(name, m["value"], m["unit"])
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()

    probes = 0 if args.trace else SETUP_PROBES
    cpus = sorted(os.sched_getaffinity(0))
    setup_samples = [run_worker(["--mode", "setup"], env, deadline,
                                cpus[i % len(cpus)])["setup_s"]
                     for i in range(probes)]
    record = run_worker(["--mode", "run", "--workload", args.workload,
                         "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace)], env, deadline)
    setup_samples.append(record["setup_s"])

    versions = record["environment"]
    print(f"environment: python {versions['python']}, numpy "
          f"{versions['numpy']}, scipy {versions['scipy']}, "
          f"{platform.machine()} with {os.cpu_count()} cpus, BLAS threads "
          f"{env['OPENBLAS_NUM_THREADS']}, TRISPIN_THREADS unset, "
          f"git {git_sha()}")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(record['passes'])} passes, trace {args.trace}")
    metrics = per_layer(record) if args.trace else \
        end_to_end(record, setup_samples)
    for name, (value, unit) in record["aliases"].items():
        show(name, value, unit)
    attempted, failed = record["attempted"], record["failed"]
    print(f"fail_frac = {failed / attempted:.6g}  "
          f"({failed} of {attempted} output checks failed)")
    for line in record["failures"]:
        print(f"FAILED {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
