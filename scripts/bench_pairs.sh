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
# Writes both sides' median, quartile distance and min-max of each end-to-end
# metric in BENCHMARK.json, and the pairs the working tree won by its `better`
# (ties count for neither), to BENCH_<short REV>.json at the repo root. Each
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
# Exits non-zero if a run fails, reports correct = false, or a tier-1 suite fails.
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
python3 - "$root" "$rev" "$pairs" "$tmp/runs" "$tmp" "$(getconf CLK_TCK)" "$@" <<'EOF'
import json, os, statistics, subprocess, sys, time

root, rev, pairs, runs, trees, ticks_per_s, *workloads = sys.argv[1:]
pairs, ticks_per_s = int(pairs), int(ticks_per_s)
with open(os.path.join(root, "BENCHMARK.json")) as handle:
    better = {metric["name"]: {"higher": max, "lower": min}[metric["better"]]
              for metric in json.load(handle)["end_to_end"]}


def git(*args):
    return subprocess.run(["git", "-C", root, *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def summary(values):
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "iqr": quartiles[2] - quartiles[0],
            "min": min(values), "max": max(values), "runs": values}


def load(workload, side, pair):
    with open(os.path.join(runs, f"{workload}.{side}.{pair}.txt")) as handle:
        lines = handle.read().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env: "))[5:])
    return env, json.loads(lines[-1])


def host(workload, side):
    """Each run's load average before and after it, and the host's steal seconds during it."""
    entry = {"load_before": [], "load_after": [], "steal_s": []}
    for pair in range(1, pairs + 1):
        with open(os.path.join(runs, f"{workload}.{side}.{pair}.host")) as handle:
            (load_before, steal_before), (load_after, steal_after) = (
                line.split() for line in handle)
        entry["load_before"].append(float(load_before))
        entry["load_after"].append(float(load_after))
        entry["steal_s"].append((int(steal_after) - int(steal_before)) / ticks_per_s)
    return entry


report = {
    "base_rev": git("rev-parse", rev),
    "work_rev": git("rev-parse", "HEAD"),
    "work_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
    "pairs": pairs, "seed": 1, "seconds": 10,
    "order": "odd pairs run base first, even pairs work first", "env": None, "workloads": {},
}
ok = True
for workload in workloads:
    results = {side: [load(workload, side, p) for p in range(1, pairs + 1)]
               for side in ("base", "work")}
    report["env"] = report["env"] or {k: v for k, v in results["work"][0][0].items()
                                      if k in ("python", "numpy", "blas", "blas_threads", "nproc")}
    entry = {"correct": {side: [r["correct"] for _, r in runs_]
                         for side, runs_ in results.items()}}
    ok &= all(all(flags) for flags in entry["correct"].values())
    for metric, pick in better.items():
        values = {side: [r["metrics"][metric]["value"] for _, r in runs_]
                  for side, runs_ in results.items()}
        wins = sum(w != b and pick(w, b) == w for b, w in zip(values["base"], values["work"]))
        entry[metric] = {
            "unit": results["work"][0][1]["metrics"][metric]["unit"],
            **{side: summary(v) for side, v in values.items()},
            "work_better_pairs": wins,
        }
    entry["host"] = {side: host(workload, side) for side in ("base", "work")}
    report["workloads"][workload] = entry
report["tier1_s"] = {}
for side in ("base", "work"):
    tree = os.path.join(trees, side)
    print(f"== tier-1 tests: {side}", file=sys.stderr, flush=True)
    start = time.perf_counter()
    suite = subprocess.run([sys.executable, "-m", "pytest", "-q"], cwd=tree, stdout=sys.stderr,
                           env={**os.environ, "PYTHONPATH": os.path.join(tree, "src")})
    report["tier1_s"][side] = round(time.perf_counter() - start, 2)
    ok &= suite.returncode == 0
path = os.path.join(root, f"BENCH_{rev}.json")
with open(path, "w") as handle:
    json.dump(report, handle, indent=2)
    handle.write("\n")
for workload, entry in report["workloads"].items():
    cells = [f"{m} {entry[m]['base']['median']:.4g} -> {entry[m]['work']['median']:.4g}"
             for m in better]
    print(f"{workload}: " + ", ".join(cells))
print(f"tier-1: {report['tier1_s']['base']} s -> {report['tier1_s']['work']} s")
print(f"wrote {path}")
sys.exit(0 if ok else 1)
EOF
