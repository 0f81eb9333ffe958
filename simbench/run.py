#!/usr/bin/env python3
"""Simulator-speed benchmark: host time of warm-image replays.

Run from the repository root:

    python3 simbench/run.py --workload tpcb-mp8 --seed 1 --seconds 10 --trace 0

On first use this builds the simulator library and the replay program
(simbench/replay.cc, simbench/CMakeLists.txt) in Release mode under
$CARGO_TARGET_DIR/simbench (default .bench_build/simbench); later runs
only re-check the build. It then runs one measurement: for --seconds,
the workload's warm image is built from --seed, checked and replayed,
round after round, with every time scaled by a host-speed probe (see
replay.cc for the protocol and the correctness checks).

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics: the end_to_end metrics of BENCHMARK.json
with --trace 0, its per_layer metrics with --trace 1. Anything that
goes wrong (no simulator sources, build failure, a crash, a missing
metric) exits non-zero without printing a result.

Workloads (--seed picks the warm-up length, and so the warm image and
the transactions the replays measure):
  tpcb-mp8  Figure 6's 1 MB direct-mapped bar, 8 CPUs: coherence misses,
            directory and interconnect work, the 8-CPU scheduler loop
  tpcb-uni  Figure 5's 1 MB direct-mapped bar, 1 CPU: reference
            generation, VM, L1/L2, no remote traffic
  dss-mp8   DSS scan streams on the 8-CPU base machine: a different
            reference generator (long sequential block scans)
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tpcb-mp8", "tpcb-uni", "dss-mp8")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"simbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found at {ROOT / 'src'}")
    target = os.environ.get("CARGO_TARGET_DIR")
    out = (Path(target).resolve() if target
           else ROOT / ".bench_build") / "simbench"
    try:
        if not (out / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(out), "--target",
                        "simbench-replay", "-j", jobs],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")
    return out / "simbench-replay"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    try:
        proc = subprocess.run(
            [str(exe), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"simbench-replay ran longer than {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"simbench-replay exited with {proc.returncode}")

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("simbench-replay printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if set(result["metrics"]) != expected_metrics(args.trace):
        fail(f"result metrics {sorted(result['metrics'])} do not match "
             "BENCHMARK.json")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
