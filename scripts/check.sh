#!/bin/sh
# Check the working tree against git revision REV (default HEAD):
#
#   scripts/check.sh [REV]
#
# Each side is extracted once with git archive: REV, and the `git stash
# create` snapshot of the tracked files (HEAD when clean; untracked files are
# left out, as in scripts/bench_pairs.py). It prints the src/ line count, in
# all and per module, and each module's package imports, at REV [-> in the
# working tree]; runs the tier-1 and benchmark tests in the working tree's
# copy; regenerates each side's studies (its scripts/reproduce_all.sh, on one
# BLAS thread); and diffs both sides' stdout and out/ byte for byte. If REV's
# regenerated out/ equals its committed out/, this machine reproduces REV, and
# the working tree's committed out/ must be what it regenerates too; otherwise
# a line says that check is skipped. Each differing file gets the count of its
# changed numbers and their largest relative change |a - b| / max(|a|, |b|).
# Every step runs; exits 1 if any failed.
set -eu
if [ $# -gt 1 ]; then
  echo "usage: $0 [REV]" >&2
  exit 2
fi
rev="${1:-HEAD}"
cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# A shell such as dash runs no EXIT trap when a signal ends it; exiting
# from the signal's own trap does.
trap 'exit 1' INT TERM
mkdir "$tmp/base" "$tmp/work"
snapshot="$(git stash create)"
git archive "$rev" | tar -x -C "$tmp/base"
git archive "${snapshot:-HEAD}" | tar -x -C "$tmp/work"
cd "$tmp"
echo "== src/ lines: $(find base/src -name '*.py' -exec cat {} + | wc -l) at $rev," \
  "$(find work/src -name '*.py' -exec cat {} + | wc -l) in the working tree" >&2
# Each module's line count at REV and in the working tree (0 where it is absent).
{ (cd base && find src -name '*.py'); (cd work && find src -name '*.py'); } | sort -u |
  while read -r path; do
    echo "   $path: $(cat "base/$path" 2>/dev/null | wc -l) ->" \
      "$(cat "work/$path" 2>/dev/null | wc -l)" >&2
  done
echo "== package modules each module imports, at $rev [-> in the working tree]" >&2
python3 - base/src/shiftagg work/src/shiftagg >&2 <<'EOF'
import ast, pathlib, sys


def imports(package):
    """Each module's imports of other package modules, by tests/test_package.py's rule."""
    found = {}
    for path in sorted(pathlib.Path(package).glob("*.py")):
        targets = found.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:
                target = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == "shiftagg":
                target = node.module.partition(".")[2]
            else:
                continue
            targets.update([target] if target else [a.name for a in node.names])
    return found


base, work = (imports(package) for package in sys.argv[1:])
for module in sorted(base.keys() | work.keys()):
    before = " ".join(sorted(base.get(module, ()))) or "-"
    after = " ".join(sorted(work.get(module, ()))) or "-"
    print(f"   {module}: {before}" + (f" -> {after}" if after != before else ""))
EOF
status=0
cd work
echo "== tier-1 tests" >&2
PYTHONPATH="$PWD/src" python3 -m pytest -q --continue-on-collection-errors || status=1
echo "== benchmark tests" >&2
PYTHONPATH="$PWD/src" python3 -m pytest -q perfbench || status=1
cd ..
for side in base work; do
  echo "== studies from $side" >&2
  mv "$side/out" "$side.committed"
  OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
    "$side/scripts/reproduce_all.sh" >"$side.stdout" || status=1
done
# compare LABEL OLD NEW: diff two files or trees; on a difference, print the
# numeric summary of each file that differs and fail.
compare() {
  diff -r "$2" "$3" && return
  status=1
  python3 - "$@" <<'EOF'
import math, os, re, sys

label, old_root, new_root = sys.argv[1:]
number = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")
rels = ["."] if os.path.isfile(old_root) else sorted(
    os.path.relpath(os.path.join(folder, name), old_root)
    for folder, _, files in os.walk(old_root) for name in files)
print(f"numeric summary of the files that differ ({label}):")
for rel in rels:
    name = os.path.normpath(os.path.join(label, rel))
    old_path, new_path = (os.path.normpath(os.path.join(root, rel)) for root in sys.argv[2:])
    if not os.path.exists(new_path):
        continue
    with open(old_path, errors="replace") as a, open(new_path, errors="replace") as b:
        old, new = a.read(), b.read()
    if old == new:
        continue
    if number.split(old) != number.split(new):
        print(f"  {name}: the text around the numbers differs")
        continue
    changed, largest = 0, 0.0
    for x, y in zip(map(float, number.findall(old)), map(float, number.findall(new))):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        changed += 1
        scale = max(abs(x), abs(y))
        largest = max(largest, abs(x - y) / scale if math.isfinite(scale) else math.inf)
    print(f"  {name}: {changed} numbers changed, largest relative change {largest:.3g}")
EOF
}
echo "== study outputs against $rev" >&2
compare stdout base.stdout work.stdout
compare out base/out work/out
if diff -r base.committed base/out >/dev/null 2>&1; then
  compare "committed out" work.committed work/out
else
  echo "this machine does not reproduce the committed out/ of $rev: committed out/ not checked"
fi
[ "$status" -eq 0 ] && echo "every check passed against $rev"
exit "$status"
