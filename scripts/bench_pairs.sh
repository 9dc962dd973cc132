#!/bin/sh
# Benchmark git revision REV against the working tree with perfbench/run.py.
# For each workload, PAIRS pairs of runs of REV and of the working tree, each
# extracted with git archive into its own temporary directory; the working
# tree is the commit `git stash create` makes of its tracked files, staged or
# not (untracked files are left out: `git add` them first). Both sides run
# from an extracted tree because a run inside the repository checkout reads a
# higher peak RSS than the same code extracted. Odd pairs run REV first, even
# pairs the working tree, so neither side always meets a warmer or busier
# machine. Every run is `--seed 1 --seconds 10`, the benchmark's run length.
# scripts/bench_summary.py then writes both sides' median, quartile distance
# and min-max of each end-to-end metric in BENCHMARK.json, the pairs the
# working tree won by its `better` (ties count for neither), the change of the
# work median and a verdict against the metric's `bound` (bit-equal, within,
# beyond or unresolved), to BENCH_<short REV>.json at the repo root. Each
# workload's "host" entry holds, per side and run, the host's one-minute load
# average (/proc/loadavg) just before and just after the run and the CPU time
# the hypervisor stole from the whole host during it (the steal ticks of the
# `cpu` line of /proc/stat), so a busy or noisy machine shows in the file. After
# the pairs, each tree runs its tier-1 tests once (`python3 -m pytest -q` with
# that tree's src/ on PYTHONPATH); their wall times go under "tier1_s".
#
#   scripts/bench_pairs.sh REV PAIRS WORKLOAD...
#   scripts/bench_pairs.sh HEAD 10 moons-correlation moons-sensitivity
#
# Exits non-zero if a run fails, reports correct = false, a tier-1 suite fails,
# or a metric is beyond its bound.
set -eu
if [ $# -lt 3 ]; then
  echo "usage: $0 REV PAIRS WORKLOAD..." >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
rev="$(git -C "$root" rev-parse --short "$1")"
pairs="$2"
shift 2
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# A shell such as dash runs no EXIT trap when a signal ends it; exiting
# from the signal's own trap does.
trap 'exit 1' INT TERM
mkdir "$tmp/base" "$tmp/work" "$tmp/runs"
# One line: the one-minute load average and the host's steal ticks so far.
host_load() {
  read -r load _ </proc/loadavg
  echo "$load $(awk '$1 == "cpu" { print $9 }' /proc/stat)"
}
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"
snapshot="$(git -C "$root" stash create)"
git -C "$root" archive "${snapshot:-HEAD}" | tar -x -C "$tmp/work"
for workload in "$@"; do
  pair=1
  while [ "$pair" -le "$pairs" ]; do
    order="base work"
    [ $((pair % 2)) -eq 0 ] && order="work base"
    for side in $order; do
      tree="$tmp/$side"
      echo "== $workload pair $pair/$pairs: $side" >&2
      host_load >"$tmp/runs/$workload.$side.$pair.host"
      python3 "$tree/perfbench/run.py" --workload "$workload" --seed 1 --seconds 10 \
        >"$tmp/runs/$workload.$side.$pair.txt"
      host_load >>"$tmp/runs/$workload.$side.$pair.host"
    done
    pair=$((pair + 1))
  done
done
python3 "$root/scripts/bench_summary.py" "$root" "$rev" "$pairs" "$tmp/runs" "$tmp" \
  "$(getconf CLK_TCK)" "$@"
