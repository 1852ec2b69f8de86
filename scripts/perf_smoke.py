#!/usr/bin/env python3
"""Perf-smoke gate: fail CI when simulator throughput regresses.

Runs ``bench_sim_throughput`` (which measures committed instructions
per host CPU-second with CLOCK_PROCESS_CPUTIME_ID and writes
``BENCH_sim_throughput.json`` in the working directory) and compares
the fresh ``current`` values against the ones committed to the repo.
A config may not drop below ``--min-ratio`` (default 0.8, i.e. a >20%%
regression fails). CI machines differ from the container the repo
numbers were recorded on, so this is a smoke gate against large
regressions, not a benchmark.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

# Columns the gate must always see in the committed reference file.
# Dropping one there would silently un-gate its throughput (the
# per-row loop below only covers what the reference lists), so the
# set is pinned here and extended whenever a bench column is added:
# cmp2 arrived with the CMP subsystem, cmp4 with the horizon-parallel
# chip stepper, cmp2_shared with cross-core L1 coherence, sweep_warm
# with the content-addressed result store, cmp8 with the many-core
# scale-up.
REQUIRED_CONFIGS = frozenset({
    "synchronous",
    "mcdProgram",
    "mcdPhaseAdaptive",
    "cmp2",
    "cmp4",
    "cmp8",
    "cmp2_shared",
    "sweep_warm",
})


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True,
                        help="path to bench_sim_throughput")
    parser.add_argument("--ref", required=True,
                        help="committed BENCH_sim_throughput.json")
    parser.add_argument("--min-ratio", type=float, default=0.8,
                        help="minimum measured/committed ratio "
                             "(default 0.8)")
    args = parser.parse_args()

    bench = Path(args.bench).resolve()
    ref = json.loads(Path(args.ref).read_text())

    missing = REQUIRED_CONFIGS - set(ref["configs"])
    if missing:
        sys.exit("committed reference lost tracked columns: "
                 f"{', '.join(sorted(missing))}")

    with tempfile.TemporaryDirectory(prefix="perf_smoke_") as tmp:
        # --benchmark_filter=NONE skips the google-benchmark timings;
        # the JSON measurement pass runs once the flags parse.
        subprocess.run([str(bench), "--benchmark_filter=NONE"],
                       cwd=tmp, check=True,
                       stdout=subprocess.DEVNULL)
        fresh = json.loads(
            (Path(tmp) / "BENCH_sim_throughput.json").read_text())

    # Per-config delta table: the job log shows, for every tracked
    # config, where this build stands against both the committed
    # `current` column (the gate) and the frozen seed baseline (the
    # trajectory), not just a pass/fail verdict.
    failures = []
    header = (f"{'config':<18} {'seed':>10} {'committed':>12} "
              f"{'measured':>12} {'delta':>8} {'vs seed':>8}")
    print(header)
    print("-" * len(header))
    for name, row in ref["configs"].items():
        seed = float(row["seed_baseline"])
        committed = float(row["current"])
        if name not in fresh["configs"]:
            # A tracked column (e.g. the cmp2 multi-core chip) must
            # never silently vanish from the bench output — that
            # would un-gate its throughput.
            failures.append(f"{name} (missing from bench output)")
            print(f"{name:<18} {'-':>10} {committed:>12.0f} "
                  f"{'MISSING':>12}  << FAIL")
            continue
        measured = float(fresh["configs"][name]["current"])
        ratio = measured / committed
        delta = 100.0 * (ratio - 1.0)
        speedup = measured / seed if seed > 0 else float("inf")
        flag = "" if ratio >= args.min_ratio else "  << FAIL"
        print(f"{name:<18} {seed:>10.0f} {committed:>12.0f} "
              f"{measured:>12.0f} {delta:>+7.1f}% {speedup:>7.2f}x"
              f"{flag}")
        if ratio < args.min_ratio:
            failures.append(name)

    if failures:
        sys.exit(f"throughput dropped >{(1 - args.min_ratio):.0%} on: "
                 f"{', '.join(failures)}")
    print("perf smoke OK")


if __name__ == "__main__":
    main()
