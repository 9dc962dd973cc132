"""Summarise the runs of scripts/bench_pairs.sh into BENCH_<REV>.json, with a verdict per metric.

For each workload and end-to-end metric of BENCHMARK.json it writes both
sides' median, quartile distance and min-max, the pairs the working tree won
by the metric's `better` (ties count for neither), the change of the work
median against the base median, and a verdict against the metric's `bound`:

- bit-equal: every run of both sides reads the same value;
- unresolved: the base runs' quartile distance exceeds bound x |base median|,
  unless every work run beats every base run;
- beyond: the work median is worse than the base median by more than
  bound x |base median|;
- within: every other case.

Then each tree runs its tier-1 tests once, the file is written and one line
per metric is printed. Exits 1 if a run reports correct = false, a tier-1
suite fails, or a metric is beyond its bound.

    python3 scripts/bench_summary.py ROOT REV PAIRS RUNS TREES CLK_TCK WORKLOAD...

RUNS holds each run's perfbench output, <workload>.<side>.<pair>.txt, and its
host readings, <workload>.<side>.<pair>.host; TREES holds the extracted base/
and work/ trees.
"""

import json
import os
import statistics
import subprocess
import sys
import time


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
    base_stats, work_median = summary(base), statistics.median(work)
    scale = bound * abs(base_stats["median"])
    change = ((work_median - base_stats["median"]) / abs(base_stats["median"])
              if base_stats["median"] else None)
    if base_stats["iqr"] > scale and not all(sign * (w - b) > 0 for w in work for b in base):
        return change, "unresolved"
    if sign * (base_stats["median"] - work_median) > scale:
        return change, "beyond"
    return change, "within"


def main(argv):
    root, rev, pairs, runs, trees, ticks_per_s, *workloads = argv
    pairs, ticks_per_s = int(pairs), int(ticks_per_s)
    metrics = end_to_end(root)

    def git(*args):
        return subprocess.run(["git", "-C", root, *args], capture_output=True, text=True,
                              check=True).stdout.strip()

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
                                          if k in ("python", "numpy", "blas", "blas_threads",
                                                   "nproc")}
        entry = {"correct": {side: [r["correct"] for _, r in runs_]
                             for side, runs_ in results.items()}}
        ok &= all(all(flags) for flags in entry["correct"].values())
        for metric, (better, bound) in metrics.items():
            values = {side: [r["metrics"][metric]["value"] for _, r in runs_]
                      for side, runs_ in results.items()}
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (w - b) > 0 for b, w in zip(values["base"], values["work"]))
            change, found = verdict(values["base"], values["work"], better, bound)
            entry[metric] = {
                "unit": results["work"][0][1]["metrics"][metric]["unit"],
                **{side: summary(v) for side, v in values.items()},
                "work_better_pairs": wins,
                "bound": bound, "change": change, "verdict": found,
            }
        entry["host"] = {side: host(workload, side) for side in ("base", "work")}
        report["workloads"][workload] = entry
    report["tier1_s"] = {}
    for side in ("base", "work"):
        tree = os.path.join(trees, side)
        print(f"== tier-1 tests: {side}", file=sys.stderr, flush=True)
        start = time.perf_counter()
        suite = subprocess.run([sys.executable, "-m", "pytest", "-q"], cwd=tree,
                               stdout=sys.stderr,
                               env={**os.environ, "PYTHONPATH": os.path.join(tree, "src")})
        report["tier1_s"][side] = round(time.perf_counter() - start, 2)
        ok &= suite.returncode == 0
    path = os.path.join(root, f"BENCH_{rev}.json")
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
                  f"{cell['verdict']}")
            beyond |= cell["verdict"] == "beyond"
    print(f"tier-1: {report['tier1_s']['base']} s -> {report['tier1_s']['work']} s")
    print(f"wrote {path}")
    return 0 if ok and not beyond else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
