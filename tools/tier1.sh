#!/usr/bin/env bash
# Tier-1 check: the whole suite (tests/ and perfbench/) on one BLAS thread.
#
# Passes when exactly the two documented acceptance failures fail (criteria
# 9b and 11, see ROADMAP.md) and nothing errors.  Both still run and print
# their values; no test is skipped or deselected.
#
#   tools/tier1.sh
set -uo pipefail
cd "$(dirname "$0")/.."
log=$(mktemp)
trap 'rm -f "$log"' EXIT
OPENBLAS_NUM_THREADS=1 PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
    python -m pytest -q -rfE --continue-on-collection-errors | tee "$log"
status=${PIPESTATUS[0]}
expected="FAILED tests/test_acceptance.py::test_criterion_11_oracle_cross_validation
FAILED tests/test_acceptance.py::test_criterion_9b_scaled_runs_endpoint_deviation"
got=$(grep -E '^(FAILED|ERROR) ' "$log" | sed -E 's/ - .*//' | LC_ALL=C sort)
if [ "$status" -gt 1 ] || [ "$got" != "$expected" ]; then
    echo "tier1: expected exactly the two documented failures, got:" >&2
    echo "${got:-(none)}" >&2
    exit 1
fi
echo "tier1: ok, only the two documented acceptance failures"
