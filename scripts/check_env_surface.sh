#!/usr/bin/env bash
# Environment-surface gate (registered with ctest): the environment
# carries only deployment settings — worker count, trace file and
# metrics file. Anything that changes a simulated number (kernel,
# sweep mode, result cache) is an explicit argument, so a `getenv` of
# any other name in src/ fails the gate.
set -u

src_root="${1:?usage: check_env_surface.sh <repo root>}"

violations=$(grep -rn --include='*.hh' --include='*.cc' 'getenv' \
                  "$src_root/src" |
             grep -v -E 'getenv\("GALS_(THREADS|TRACE|METRICS)"\)' || true)

if [ -n "$violations" ]; then
    echo "environment reads outside GALS_THREADS/GALS_TRACE/GALS_METRICS:"
    echo "$violations"
    exit 1
fi
echo "environment surface OK"
