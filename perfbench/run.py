"""dualpf benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh child
process (`workloads.py`) with OpenBLAS, OpenMP and MKL limited to one
thread, importing the library from `src/`.  With `--trace 0` the command
starts the workload SETUP_REPEATS - 1 times in set-up-only processes and
once for the measurement, and reports the median set-up time with the
end-to-end metrics.  With `--trace 1` it runs the traced workload once and
reports the per-layer metrics.

Stdout ends with a table of every metric, one JSON line with the full
record (all metrics, checks, failures and environment) and, last, the
result line `{"correct", "attempted", "failed", "metrics"}`.  The exit
status is 1 when a correctness check fails and 2 when the benchmark
cannot run at all.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
DEADLINE_S = 170.0

# Metrics reported on every workload where they apply, with their units.
# The gated subset and its bounds are listed in BENCHMARK.json.
REPORTED = {
    "setup_s": "s", "peak_rss_mb": "MB", "run_failure_pct": "%",
    "step_ms_p50": "ms", "step_ms_p99": "ms", "particle_steps_per_s": "1/s",
    "wall_s.dual": "s", "wall_s.bayesian": "s", "wall_s.rml": "s",
    "fdi_accuracy_pct.dual": "%", "fdi_accuracy_pct.bayesian": "%",
    "fdi_accuracy_pct.rml": "%", "fdi_false_positive_pct.dual": "%",
    "theta_mae_pct": "%",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_child(args, mode: str, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the workload started")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--out", os.path.join(HERE, "out")]
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process timed out after {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "dualpf")):
        print("benchmark: no library source under src/dualpf", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            result = run_child(args, "trace", deadline)
            values = result["per_layer"]
            wanted = spec["per_layer"]
        else:
            setups = [run_child(args, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_REPEATS - 1)]
            result = run_child(args, "run", deadline)
            setups.append(result["setup_s"])
            result["setup_s"] = statistics.median(setups)
            result["setup_s_samples"] = setups
            values = {k: result.get(k) for k in REPORTED}
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in wanted}
    if not args.trace:
        units = {**REPORTED, **units}
    for name, unit in units.items():
        if values.get(name) is not None:
            print(f"{name:48s} {values[name]:>14.6g} {unit}")
    failed_checks = [c for c in result["checks"] if not c["ok"]]
    for c in failed_checks:
        print(f"CHECK FAILED: {c['name']} {c['detail']}")
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    for name in missing:
        print(f"CHECK FAILED: metric {name} was not measured")
    correct = not failed_checks and not missing and bool(result["checks"])

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "nproc": len(os.sched_getaffinity(0)), "commit": commit(),
              **result}
    print(json.dumps(record, default=float))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["runs_attempted"]),
        "failed": int(result["runs_failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] not in missing},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
