#!/bin/sh
# Print the line count of the Python files under src/ at git revision REV
# (default HEAD) and in the working tree, then run the checks a change must
# pass, in order, and stop at the first failure: the tier-1 tests, the
# benchmark's and the tracer's tests, then scripts/compare_outputs.sh
# against REV.
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
base_lines="$(git archive "$rev" src | tar -xO --wildcards '*.py' | wc -l)"
work_lines="$(find src -name '*.py' -exec cat {} + | wc -l)"
echo "== src/ lines: $base_lines at $rev, $work_lines in the working tree" >&2
echo "== tier-1 tests" >&2
python3 -m pytest -q --continue-on-collection-errors
echo "== benchmark and tracer tests" >&2
python3 -m pytest -q perfbench tests/test_tracing.py
echo "== study outputs against $rev" >&2
scripts/compare_outputs.sh "$rev"
