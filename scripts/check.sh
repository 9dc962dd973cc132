#!/bin/sh
# Print the line count of the Python files under src/ at git revision REV
# (default HEAD) and in the working tree, in all and per module, and the
# package modules each module imports at REV and, where they differ, in the
# working tree. Then run the checks a change must pass, in order, and stop
# at the first failure: the tier-1 tests (the tracer's tests among them),
# the benchmark's tests, then scripts/compare_outputs.sh against REV.
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
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# A shell such as dash runs no EXIT trap when a signal ends it; exiting
# from the signal's own trap does.
trap 'exit 1' INT TERM
git archive "$rev" src | tar -x -C "$tmp"
base_lines="$(find "$tmp/src" -name '*.py' -exec cat {} + | wc -l)"
work_lines="$(find src -name '*.py' -exec cat {} + | wc -l)"
echo "== src/ lines: $base_lines at $rev, $work_lines in the working tree" >&2
# Each module's line count at REV and in the working tree (0 where it is absent).
{ (cd "$tmp" && find src -name '*.py'); find src -name '*.py'; } | sort -u | while read -r path; do
  echo "   $path: $(cat "$tmp/$path" 2>/dev/null | wc -l) -> $(cat "$path" 2>/dev/null | wc -l)" >&2
done
echo "== package modules each module imports, at $rev [-> in the working tree]" >&2
python3 - "$tmp/src/shiftagg" src/shiftagg >&2 <<'EOF'
import ast
import pathlib
import sys


def imports(package):
    """Each module's imports of other package modules, by module name."""
    found = {}
    for path in sorted(pathlib.Path(package).glob("*.py")):
        targets = found.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets.update([node.module] if node.module else [a.name for a in node.names])
    return found


base, work = (imports(package) for package in sys.argv[1:])
for module in sorted(base.keys() | work.keys()):
    before = " ".join(sorted(base.get(module, ()))) or "-"
    after = " ".join(sorted(work.get(module, ()))) or "-"
    print(f"   {module}: {before}" + (f" -> {after}" if after != before else ""))
EOF
echo "== tier-1 tests" >&2
python3 -m pytest -q --continue-on-collection-errors
echo "== benchmark tests" >&2
python3 -m pytest -q perfbench
echo "== study outputs against $rev" >&2
scripts/compare_outputs.sh "$rev"
