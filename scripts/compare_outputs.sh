#!/bin/sh
# Regenerate the four studies from git revision REV and from the working
# tree, each in its own temporary directory, and compare the outputs and
# the studies' stdout byte for byte. Exits non-zero on any difference.
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
[ "$status" -eq 0 ] || exit 1
echo "outputs of $1 and the working tree are identical"
