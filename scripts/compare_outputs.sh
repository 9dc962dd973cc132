#!/bin/sh
# Regenerate the four studies from git revision REV and from the working
# tree, each in its own temporary directory, and compare the outputs and
# the studies' stdout byte for byte. On a difference it also prints, for
# each file that differs, how many of its numbers changed and the largest
# relative change |a - b| / max(|a|, |b|) among them, or that its text
# around the numbers differs. Exits non-zero on any difference.
#
#   scripts/compare_outputs.sh REV
#
# Both runs happen on this machine, so the check does not depend on the
# platform that wrote the committed out/ directory. Both use one BLAS thread,
# as the committed out/ does, whatever REV's own reproduce_all.sh sets.
set -eu
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
if [ $# -ne 1 ]; then
  echo "usage: $0 REV" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# A shell such as dash runs no EXIT trap when a signal ends it; exiting
# from the signal's own trap does.
trap 'exit 1' INT TERM
mkdir "$tmp/base" "$tmp/work"
git -C "$root" archive "$1" src scripts configs | tar -x -C "$tmp/base"
tar -C "$root" --exclude=__pycache__ -cf - src scripts configs | tar -x -C "$tmp/work"
for tree in base work; do
  echo "== studies from $tree" >&2
  PYTHONPATH="$tmp/$tree/src" "$tmp/$tree/scripts/reproduce_all.sh" >"$tmp/$tree.stdout"
done
status=0
diff "$tmp/base.stdout" "$tmp/work.stdout" || status=1
diff -r "$tmp/base/out" "$tmp/work/out" || status=1
if [ "$status" -ne 0 ]; then
  python3 - "$tmp" <<'EOF'
import math, os, re, sys

tmp = sys.argv[1]
number = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")
pairs = [("stdout", os.path.join(tmp, "base.stdout"), os.path.join(tmp, "work.stdout"))]
for folder, _, files in sorted(os.walk(os.path.join(tmp, "base", "out"))):
    for name in sorted(files):
        rel = os.path.relpath(os.path.join(folder, name), os.path.join(tmp, "base"))
        pairs.append((rel, os.path.join(tmp, "base", rel), os.path.join(tmp, "work", rel)))
print("numeric summary of the files that differ:")
for rel, base, work in pairs:
    if not os.path.exists(work):
        continue
    with open(base, errors="replace") as a, open(work, errors="replace") as b:
        old, new = a.read(), b.read()
    if old == new:
        continue
    if number.split(old) != number.split(new):
        print(f"  {rel}: the text around the numbers differs")
        continue
    changed, largest = 0, 0.0
    for x, y in zip(map(float, number.findall(old)), map(float, number.findall(new))):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        changed += 1
        scale = max(abs(x), abs(y))
        largest = max(largest, abs(x - y) / scale if math.isfinite(scale) else math.inf)
    print(f"  {rel}: {changed} numbers changed, largest relative change {largest:.3g}")
EOF
  exit 1
fi
echo "outputs of $1 and the working tree are identical"
