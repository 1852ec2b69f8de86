#!/usr/bin/env bash
# Fidelity scorecard gate (registered with ctest): a cold full
# `repro --json` run must match the committed BENCH_fidelity.json
# byte for byte. The simulator is deterministic, so a diff is drift
# in a simulated or modelled number; only a model PR regenerates the
# file and explains the diff (docs/testing.md, "Fidelity scorecard").
set -u

repro="${1:?usage: check_fidelity.sh <repro binary> <committed json>}"
committed="${2:?usage: check_fidelity.sh <repro binary> <committed json>}"

fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT

# Cold: repro never opens the result store, so no cached record
# stands in for the model.
if ! "$repro" --json "$fresh" >/dev/null; then
    echo "repro failed"
    exit 1
fi
if ! diff -u "$committed" "$fresh"; then
    echo "scorecard drift: regenerate with 'repro --json BENCH_fidelity.json'"
    echo "only in a model PR, and explain the diff in CHANGES.md"
    exit 1
fi
echo "fidelity scorecard OK"
