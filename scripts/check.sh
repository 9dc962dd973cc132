#!/bin/sh
# Run the checks a change must pass, in order, and stop at the first
# failure: the tier-1 tests, the benchmark's and the tracer's tests, then
# scripts/compare_outputs.sh against git revision REV (default HEAD).
#
#   scripts/check.sh [REV]
#
# Exits non-zero if any step fails.
set -eu
if [ $# -gt 1 ]; then
  echo "usage: $0 [REV]" >&2
  exit 2
fi
rev="${1:-HEAD}"
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH
echo "== tier-1 tests" >&2
python3 -m pytest -q --continue-on-collection-errors
echo "== benchmark and tracer tests" >&2
python3 -m pytest -q perfbench tests/test_tracing.py
echo "== study outputs against $rev" >&2
scripts/compare_outputs.sh "$rev"
