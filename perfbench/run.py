#!/usr/bin/env python3
"""Build and run the Herald benchmark for one workload.

    python3 perfbench/run.py --workload <design_sweep|tenant_fleet|overload_ramp> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark crate (perfbench/Cargo.toml)
is built in release mode into $CARGO_TARGET_DIR (default: .bench_build),
then run once in a fresh process, so its peak RSS is this workload's alone.
Each metric is printed by name with its unit, followed by its samples'
median, quartile spread and count where a run takes several. The last line
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the metrics are the per-layer ones and the spans are written to
$CARGO_TARGET_DIR/perfbench-traces/<workload>-seed<n>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("design_sweep", "tenant_fleet", "overload_ramp")
BENCH_DIR = Path(__file__).resolve().parent
# A run must end within 180 s; leave room for start-up and reporting.
RUN_TIMEOUT_S = 170.0
BUILD_TIMEOUT_S = 880.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args()


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")


def spread(values):
    """Median, quartile distance as a share of the median, and count."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med), len(values)


def main():
    args = parse_args()
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env["CARGO_TARGET_DIR"] = str(target)
    build(env)
    binary = target / "release" / "herald-perfbench"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = target / "perfbench-traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")
    if done.returncode != 0:
        fail(f"benchmark exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no record")
    record = json.loads(lines[-1])

    samples = record.get("samples", {})
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{record['attempted']} passes, {record['failed']} failed")
    for name, m in record["metrics"].items():
        line = f"  {name:<30} {m['value']:>16.6g} {m['unit']}"
        if name in samples and samples[name]:
            med, iqr, n = spread(samples[name])
            line += f"   (median {med:.6g}, quartile spread {iqr:.1%}, n={n})"
        print(line)
    print(json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": record["metrics"],
    }))


if __name__ == "__main__":
    main()
