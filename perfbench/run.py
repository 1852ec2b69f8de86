#!/usr/bin/env python3
"""Repository benchmark: build the perfbench driver from source, run one
workload, check it, and print the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The driver builds into $CARGO_TARGET_DIR
(default .bench_build). The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones. setup_s is then the median
over several processes that only set up. With --trace 1 the metrics are
the per-layer ones. perfbench/README.md defines every metric.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

WORKLOADS = ("suite_serial", "fig6_study", "cmp_chip")
# Extra set-up-only processes per untraced run; setup_s is the median
# over these and the measuring process.
SETUP_SAMPLES = 8
# Every run must end within 180 s; child processes get what is left.
DEADLINE_S = 175.0


def _decimal(low, high):
    def parse(text):
        if not re.fullmatch(r"[0-9]+", text) or not low <= int(text) <= high:
            raise argparse.ArgumentTypeError(
                f"expected a decimal integer in [{low}, {high}], got {text!r}")
        return int(text)
    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload and print its metrics.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=_decimal(0, 2**64 - 1), default=0,
                   help="0 (default) keeps the suite's own seeds")
    p.add_argument("--seconds", type=_decimal(1, 3600), default=10)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    return p.parse_args(argv)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join("src", "sim", "study.hh")):
        fail("simulator sources not found under src/; run from the "
             "repository root")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def drive(exe, args, out_dir, deadline, extra=()):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir, *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("driver exceeded the run deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv):
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(build_dir)
    exe = os.path.join(build_dir, "perfbench")
    out_dir = os.path.join(build_dir, "out")

    setups = []
    if args.trace == "0":
        for _ in range(SETUP_SAMPLES):
            setups.append(drive(exe, args, out_dir, deadline,
                                ["--setup-only"])["setup_s"])
    result = drive(exe, args, out_dir, deadline)
    metrics = result["metrics"]
    if args.trace == "0":
        setups.append(result["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setups),
                               "unit": "s"}, **metrics}
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            fail(f"metric {name} is not a finite number")

    print(f"stats_digest {args.workload} {result['stats_digest']}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main(sys.argv[1:])
