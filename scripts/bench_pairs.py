"""Benchmark git revision REV against the working tree with perfbench/run.py.

    python3 scripts/bench_pairs.py REV PAIRS WORKLOAD...
    python3 scripts/bench_pairs.py HEAD 10 moons-correlation moons-sensitivity

For each WORKLOAD of BENCHMARK.json, PAIRS pairs of `--seed 1 --seconds 10`
runs (the benchmark's run length) of REV and of the working tree, each side
extracted with git archive into a temporary directory, because a run inside
the checkout reads a higher peak RSS than the same code extracted. The working
tree is the commit `git stash create` makes of its tracked files (untracked
files are left out: `git add` them first). Odd pairs run REV first, even pairs
the working tree, so neither side always meets a warmer or busier machine.
After the pairs, each tree runs its tier-1 tests once (`python3 -m pytest -q`
with its src/ on PYTHONPATH).

BENCH_<short REV>.json at the repo root gets, for each workload and
end-to-end metric of BENCHMARK.json, both sides' median, quartile distance and
min-max, the pairs the working tree won by the metric's `better` (ties count
for neither), the change of the work median against the base median, and a
verdict against the metric's `bound`:

- bit-equal: every run of both sides reads the same value;
- unresolved: either side's quartile distance exceeds bound x |base median|,
  unless every work run beats every base run;
- beyond: the work median is worse than the base median by more than
  bound x |base median|;
- within: every other case.

It also gets `claim_met`, whether the runs show a gain in the metric: the
working tree wins at least nine tenths of the pairs, and its median beats the
base median, in the metric's `better` direction, by more than the base side's
quartile distance.

Each workload's "host" entry holds, per side and run, the one-minute load
average (/proc/loadavg) before and after the run and the seconds the
hypervisor stole from the whole host during it (the steal ticks of the `cpu`
line of /proc/stat), so a busy or noisy machine shows in the file; the tier-1
wall times go under "tier1_s". One line per metric is printed.

Exits 2 on a malformed call or an unknown workload, before any run; 1 if a run
fails or reports correct = false, a tier-1 suite fails, or a metric is beyond
its bound (after the file is written).
"""

import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "work")


def end_to_end(root):
    """Each end-to-end metric of ROOT's BENCHMARK.json: name -> (better, bound)."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return {metric["name"]: (metric["better"], metric["bound"])
                for metric in json.load(handle)["end_to_end"]}


def summary(values):
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "iqr": quartiles[2] - quartiles[0],
            "min": min(values), "max": max(values), "runs": values}


def verdict(base, work, better, bound):
    """(change, verdict) of the work runs against the base runs of one metric.

    ``change`` is (work median - base median) / |base median|, None for a
    zero base median; ``better`` is "higher" or "lower".
    """
    if len(set(base + work)) == 1:
        return 0.0, "bit-equal"
    sign = 1 if better == "higher" else -1
    base_stats, work_stats = summary(base), summary(work)
    scale = bound * abs(base_stats["median"])
    change = ((work_stats["median"] - base_stats["median"]) / abs(base_stats["median"])
              if base_stats["median"] else None)
    spread = max(base_stats["iqr"], work_stats["iqr"])
    if spread > scale and not all(sign * (w - b) > 0 for w in work for b in base):
        return change, "unresolved"
    if sign * (base_stats["median"] - work_stats["median"]) > scale:
        return change, "beyond"
    return change, "within"


def pairs_won(base, work, better):
    """The pairs, in run order, whose work run beats its base run; ties count for neither."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (w - b) > 0 for b, w in zip(base, work))


def claim_met(base, work, better):
    """Whether the work runs show a gain over the base runs they are paired with.

    The work side wins at least nine tenths of the pairs, and its median
    beats the base median by more than the base side's quartile distance.
    """
    sign = 1 if better == "higher" else -1
    base_stats = summary(base)
    return (10 * pairs_won(base, work, better) >= 9 * len(base)
            and sign * (statistics.median(work) - base_stats["median"]) > base_stats["iqr"])


def workload_entry(runs, metrics, ticks_per_s):
    """The BENCH entry of one workload.

    ``runs`` maps each side to its runs in pair order. A run holds the last
    line of perfbench output, ``result``, and the host readings ``before``
    and ``after`` it, each (one-minute load average, steal ticks so far).
    """
    entry = {"correct": {side: [run["result"]["correct"] for run in runs[side]]
                         for side in SIDES}}
    for metric, (better, bound) in metrics.items():
        values = {side: [run["result"]["metrics"][metric]["value"] for run in runs[side]]
                  for side in SIDES}
        change, found = verdict(values["base"], values["work"], better, bound)
        entry[metric] = {
            "unit": runs["work"][0]["result"]["metrics"][metric]["unit"],
            **{side: summary(v) for side, v in values.items()},
            "work_better_pairs": pairs_won(values["base"], values["work"], better),
            "bound": bound, "change": change, "verdict": found,
            "claim_met": claim_met(values["base"], values["work"], better),
        }
    entry["host"] = {side: {
        "load_before": [run["before"][0] for run in runs[side]],
        "load_after": [run["after"][0] for run in runs[side]],
        "steal_s": [(run["after"][1] - run["before"][1]) / ticks_per_s for run in runs[side]],
    } for side in SIDES}
    return entry


def host_reading():
    """The host's one-minute load average and its steal ticks so far."""
    with open("/proc/loadavg") as handle:
        load = float(handle.read().split()[0])
    with open("/proc/stat") as handle:
        steal = next(int(fields[8]) for fields in map(str.split, handle) if fields[0] == "cpu")
    return load, steal


def perfbench_run(tree, workload):
    """One `--seed 1 --seconds 10` run of WORKLOAD in TREE, with its env line and host readings."""
    before = host_reading()
    lines = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "10"],
        stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env: "))[5:])
    return {"env": env, "result": json.loads(lines[-1]), "before": before,
            "after": host_reading()}


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()


def bench(rev, pairs, workloads, tmp):
    """Run the pairs and tier-1 suites in trees under TMP, write the BENCH file; the exit code."""
    trees = {side: os.path.join(tmp, side) for side in SIDES}
    for side, commit in zip(SIDES, (rev, git("stash", "create") or "HEAD")):
        archive = subprocess.run(["git", "-C", ROOT, "archive", commit], stdout=subprocess.PIPE,
                                 check=True).stdout
        os.mkdir(trees[side])
        subprocess.run(["tar", "-x", "-C", trees[side]], input=archive, check=True)
    metrics = end_to_end(ROOT)
    report = {
        "base_rev": git("rev-parse", rev),
        "work_rev": git("rev-parse", "HEAD"),
        "work_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "pairs": pairs, "seed": 1, "seconds": 10,
        "order": "odd pairs run base first, even pairs work first", "env": None, "workloads": {},
    }
    ok = True
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for pair in range(1, pairs + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                print(f"== {workload} pair {pair}/{pairs}: {side}", file=sys.stderr, flush=True)
                runs[side].append(perfbench_run(trees[side], workload))
        report["env"] = report["env"] or {k: v for k, v in runs["work"][0]["env"].items()
                                          if k in ("python", "numpy", "blas", "blas_threads",
                                                   "nproc")}
        entry = workload_entry(runs, metrics, os.sysconf("SC_CLK_TCK"))
        ok &= all(all(flags) for flags in entry["correct"].values())
        report["workloads"][workload] = entry
    report["tier1_s"] = {}
    for side in SIDES:
        print(f"== tier-1 tests: {side}", file=sys.stderr, flush=True)
        start = time.perf_counter()
        suite = subprocess.run([sys.executable, "-m", "pytest", "-q"], cwd=trees[side],
                               stdout=sys.stderr,
                               env={**os.environ, "PYTHONPATH": os.path.join(trees[side], "src")})
        report["tier1_s"][side] = round(time.perf_counter() - start, 2)
        ok &= suite.returncode == 0
    path = os.path.join(ROOT, f"BENCH_{rev}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    beyond = False
    for workload, entry in report["workloads"].items():
        for metric in metrics:
            cell = entry[metric]
            change = "n/a" if cell["change"] is None else f"{cell['change']:+.1%}"
            print(f"{workload} {metric}: {cell['base']['median']:.4g} -> "
                  f"{cell['work']['median']:.4g} ({change}, bound {cell['bound']:.0%}) "
                  f"{cell['verdict']}, claim {'met' if cell['claim_met'] else 'not met'}")
            beyond |= cell["verdict"] == "beyond"
    print(f"tier-1: {report['tier1_s']['base']} s -> {report['tier1_s']['work']} s")
    print(f"wrote {path}")
    return 0 if ok and not beyond else 1


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        names = [workload["name"] for workload in json.load(handle)["workloads"]]
    if len(argv) < 3 or not argv[1].isdigit() or int(argv[1]) < 1 or set(argv[2:]) - set(names):
        print(f"usage: {sys.argv[0]} REV PAIRS WORKLOAD... (PAIRS at least 1; "
              f"WORKLOAD one of {', '.join(names)})", file=sys.stderr)
        return 2
    # A terminated run still removes its trees and stops its perfbench run:
    # this turns SIGTERM into an exception, as Ctrl-C already is.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        rev = git("rev-parse", "--short", argv[0])
        with tempfile.TemporaryDirectory() as tmp:
            return bench(rev, int(argv[1]), argv[2:], tmp)
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
