#!/usr/bin/env bash
# Bit-identity gate for refactor and speed changes: the benchmark's
# `stats_digest` (a hash of every simulated statistic of one pass) must
# match the committed scripts/perfbench_digests.txt on suite_serial,
# fig6_study and cmp_chip. Only a model change updates that file, and
# it lists the new digests in CHANGES.md (docs/testing.md,
# "Bit-identity digests").
#
# Usage: scripts/check_digests.sh   (from any directory; builds
# perfbench into $CARGO_TARGET_DIR or .bench_build at the repo root,
# and exits 1 before building if that directory was configured for
# another checkout)
set -u

root=$(cd "$(dirname "$0")/.." && pwd)
committed="$root/scripts/perfbench_digests.txt"

fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT

cd "$root" || exit 1
# perfbench/run.py configures its build directory only when it holds
# no CMakeCache.txt, so a directory copied from another checkout would
# build, and certify, that checkout's sources.
build_dir=${CARGO_TARGET_DIR:-.bench_build}
if [ -f "$build_dir/CMakeCache.txt" ]; then
    home=$(sed -n 's/^CMAKE_HOME_DIRECTORY:INTERNAL=//p' \
        "$build_dir/CMakeCache.txt")
    if [ "$(cd "$home" 2>/dev/null && pwd -P)" != \
         "$(cd perfbench && pwd -P)" ]; then
        echo "$build_dir/CMakeCache.txt builds $home,"
        echo "not $root/perfbench: remove it or set CARGO_TARGET_DIR"
        exit 1
    fi
fi
for w in suite_serial fig6_study cmp_chip; do
    if ! out=$(python3 perfbench/run.py --workload "$w" --seconds 1); then
        echo "perfbench run failed: $w"
        exit 1
    fi
    grep '^stats_digest ' <<<"$out" >>"$fresh"
done
if ! diff -u "$committed" "$fresh"; then
    echo "stats_digest drift: a refactor or speed change must keep"
    echo "every digest; a model change updates $committed"
    echo "and lists the new digests in CHANGES.md"
    exit 1
fi
echo "perfbench digests OK"
