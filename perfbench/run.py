"""shiftagg benchmark: the four studies through the public CLI, one workload each.

    python3 perfbench/run.py --workload sinc-run --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Every study call runs ``shiftagg.cli.main([...])`` (config load, the study's
``harness.run_*``, ``harness.write_outputs``) in a fresh single-process
interpreter with one BLAS thread; times are the CPU time of that process
(see perfbench/worker.py for why). A run draws a workload's seed lists from
``--seed`` and calls the study once on each, then repeats the calls, list by
list, until ``--seconds`` have passed; every repeat must write the same rows
and aggregates as the first call on its list. ``seeds_per_s`` is the median
over calls. ``--trace 1`` uses the first list only, alternates traced and
untraced calls and reports the per-layer metrics of ``perfbench/tracing.py``
instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` counts
result rows over all calls; a row fails when it is an error row, holds a
non-finite number, differs from the first call's row, or belongs to the
seed whose ``c = G+ g`` check failed. ``--workload all`` prints a table of
every workload's end-to-end metrics instead.
"""

import argparse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from tracing import EXACT_COUNTERS, LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(HERE, "_runs")

# Set-up is timed in its own fresh interpreters as well as in every study call.
SETUP_REPEATS = 5
# Relative tolerance of the c = G+ g check, as a share of max|c|.
CHECK_REL_TOL = 1e-8
WORKER_TIMEOUT_S = 170
# Workers that run at once when a workload has several seed lists: at most
# one per core, so that each measures its own CPU time, not the scheduler.
PARALLEL_WORKERS = min(2, len(os.sched_getaffinity(0)))


def _aggregate(payload, method, count=None):
    """The median aggregate row of one results payload."""
    for agg in payload["aggregates"]:
        if agg["method"] == method and agg["stat"] == "median" and agg["count"] == count:
            return agg
    raise KeyError(f"no median aggregate for {method} at count {count}")


# Each takes the results payload of every seed list of a run.


def _sinc_run_error(payloads):
    """Median iwa excess risk over the oracle aggregate."""
    return _aggregate(payloads[0], "iwa")["excess"]


def _rate_error(payloads):
    """Median ||c_tilde - c_star|| at n = m = 4000."""
    return payloads[0]["medians"]["4000"]


def _sensitivity_error(payloads):
    """Median iwa accuracy with no corrupted model over that with 100.

    The accuracy drop in ratio form: 1 means unchanged, above 1 a drop. The
    plain difference is negative or zero on some seeds, so a relative bound
    on it would mean nothing. Medians are over the seeds of all lists.
    """
    def median_accuracy(count):
        return statistics.median(row["accuracy"] for payload in payloads
                                 for row in payload["rows"]
                                 if row["method"] == "iwa" and row.get("count") == count)

    return median_accuracy(0) / median_accuracy(100)


def _correlation_error(payloads):
    """1 / median iwa Pearson r: moves by the same share as r, 1 is perfect."""
    median_r = next(s["median"] for s in payloads[0]["summary"] if s["method"] == "iwa")
    return 1.0 / median_r


@dataclass(frozen=True)
class Workload:
    command: str
    config: str
    seeds: int  # study seeds per call
    lists: int  # distinct seed lists per untraced run
    extra_args: tuple
    iwa_error: object
    weights_in_results: bool


# Why each workload is here (shares are self time from a traced run):
# * sinc-run: the paper's headline study and the only user of `selection`;
#   instance draws and batch prediction on 100k eval rows dominate. No
#   softmax fit, no corruption: items that speed those up should not move it.
# * sinc-rate: the only caller of `iwa`/`oracle_weights` with model objects,
#   as in the README quick start, so `aggregation` predicts for itself; the
#   only n = m sweep (250 -> 4000). Finiteness checks on Gram/moment show
#   here first.
# * moons-sensitivity: up to 114 models with per-row blake2b noise in
#   `CorruptedModel.predict_many`; every count re-predicts every model.
# * moons-correlation: the 14-model softmax ladder and the learned ratio fit
#   dominate; stacked training shows here and barely on sensitivity.
# Seed counts keep the spread of iwa_error across seed lists small
# (sinc-rate's deviation is heavy-tailed, so it needs many seeds). A
# sensitivity seed takes 6-14 s: its corruption gate draws 220-780 candidates.
# With the cost of a seed spread that wide (16% of its mean), a steady rate
# needs many seeds, so a run makes one call on each of 12 seeds, two at a time,
# and takes the median, which one slow stretch of a shared host barely moves.
WORKLOADS = {
    "sinc-run": Workload("run", "configs/sinc_near_optimality.cfg", 100, 1, (),
                         _sinc_run_error, True),
    "sinc-rate": Workload("rate-check", "configs/rate_check.cfg", 400, 1,
                          ("--sizes", "250,1000,4000", "--oracle-draws", "100000"),
                          _rate_error, False),
    "moons-sensitivity": Workload("sensitivity", "configs/sensitivity.cfg", 1, 12,
                                  ("--counts", "10,50,100"), _sensitivity_error, True),
    "moons-correlation": Workload("correlate", "configs/correlation.cfg", 5, 1, (),
                                  _correlation_error, False),
}

END_TO_END = {"seeds_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "iwa_error": "unitless"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


_live_workers = set()
_live_lock = threading.Lock()


def _spawn(request):
    """Run perfbench/worker.py in a fresh interpreter and return its JSON line."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(request)]
    with subprocess.Popen(argv, env=_worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        with _live_lock:
            _live_workers.add(proc)
        try:
            stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
        finally:
            with _live_lock:
                _live_workers.discard(proc)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {request['mode']} exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(lines[-1])


def _kill_workers():
    """Kill the workers still running; the threads that started them reap them."""
    with _live_lock:
        for proc in _live_workers:
            proc.kill()


def _git_stamp():
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                              timeout=30, check=True).stdout.strip()

    # Without its own .git the checkout is not a repository; git would search
    # the directories above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown", None
    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        return "unknown", None


def _environment(worker_env, workload):
    with open(os.path.join(ROOT, workload.config), "rb") as handle:
        config_hash = hashlib.sha256(handle.read()).hexdigest()
    revision, dirty = _git_stamp()
    return {
        **worker_env,
        "nproc": len(os.sched_getaffinity(0)),
        "parallel_workers": PARALLEL_WORKERS if workload.lists > 1 else 1,
        "git_revision": revision,
        "git_dirty": dirty,
        "config": workload.config,
        "config_sha256": config_hash,
    }


# --- results.json reading -----------------------------------------------------

_NUMERIC_FIELDS = ("risk", "accuracy", "excess", "weights", "scores", "gram_condition",
                   "deviation", "pearson_r")


def _finite(value):
    if value is None:
        return True
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return isinstance(value, (int, float)) and math.isfinite(value)


def _row_failed(row):
    return "error" in row or not all(_finite(row.get(f)) for f in _NUMERIC_FIELDS)


def _load_results(out_dir):
    with open(os.path.join(out_dir, "results.json")) as handle:
        payload = json.load(handle)
    # The output directory is the one input that differs between repeats.
    payload["config"].pop("out", None)
    return payload


def _canonical_parts(payload):
    """Rows and everything else of a results payload, each as comparable text."""
    rows = [json.dumps(row, sort_keys=True) for row in payload["rows"]]
    rest = json.dumps({k: v for k, v in payload.items() if k != "rows"}, sort_keys=True)
    return rows, rest


# --- one run ------------------------------------------------------------------


def _seed_lists(seed, workload):
    drawn = random.Random(seed).sample(range(1, 2**31), workload.seeds * workload.lists)
    return [drawn[i:i + workload.seeds] for i in range(0, len(drawn), workload.seeds)]


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    for needed in (os.path.join("src", "shiftagg", "__init__.py"), workload.config):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise BenchError(f"{needed} is missing: run from a shiftagg checkout")
    run_dir = os.path.join(RUNS_DIR, f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    seed_lists = _seed_lists(seed, workload)
    if trace:
        seed_lists = seed_lists[:1]
    base = {"root": ROOT, "config": workload.config, "seeds": seed_lists[0],
            "command": workload.command, "extra_args": list(workload.extra_args)}

    # The first interpreter start writes bytecode caches; it is not timed.
    _spawn({**base, "mode": "setup"})
    setups = [_spawn({**base, "mode": "setup"}) for _ in range(SETUP_REPEATS)]
    env = _environment(setups[0]["env"], workload)

    def study_call(index):
        traced = trace and index % 2 == 0
        seeds = seed_lists[index % len(seed_lists)]
        out = os.path.join(run_dir, f"call{index}")
        call = _spawn({**base, "seeds": seeds, "mode": "study", "trace": traced, "out": out})
        if call["exit_code"] not in (0, 2):
            raise BenchError(f"shiftagg exited {call['exit_code']} on {name}")
        call.update(traced=traced, seeds=seeds, payload=_load_results(out))
        return call

    calls, start = [], time.perf_counter()
    if len(seed_lists) > 1:
        # The first call on each list, PARALLEL_WORKERS at a time.
        with ThreadPoolExecutor(PARALLEL_WORKERS) as pool:
            try:
                calls = list(pool.map(study_call, range(len(seed_lists))))
            except BaseException:
                _kill_workers()
                raise
    # Traced runs make two traced calls, so that their exact counters can be
    # compared, and two untraced ones for the tracing overhead.
    min_calls = 4 if trace else 1
    while len(calls) < min_calls or time.perf_counter() - start < seconds:
        calls.append(study_call(len(calls)))

    check = _spawn({**base, "mode": "check", "rel_tol": CHECK_REL_TOL,
                    "results": os.path.join(run_dir, "call0", "results.json")
                    if workload.weights_in_results else None})

    # The first call on each seed list is the reference for its repeats.
    firsts = calls[:len(seed_lists)]
    attempted = failed = 0
    repeats_identical = True
    for n, call in enumerate(calls):
        first_rows, first_rest = _canonical_parts(firsts[n % len(firsts)]["payload"])
        rows, rest = _canonical_parts(call["payload"])
        repeats_identical &= rows == first_rows and rest == first_rest
        attempted += len(rows)
        for i, row in enumerate(call["payload"]["rows"]):
            matches = i < len(first_rows) and rows[i] == first_rows[i]
            bad_check = not check["ok"] and row.get("seed") == check["seed"]
            failed += int(_row_failed(row) or not matches or bad_check)

    rates = {flag: [len(c["seeds"]) / c["cpu_s"] for c in calls if c["traced"] == flag]
             for flag in (False, True)}
    correct = failed == 0 and check["ok"] and repeats_identical
    if trace:
        metrics, exact = _layer_metrics([c for c in calls if c["traced"]], rates)
        correct &= exact
    else:
        setup_samples = [s["setup_s"] for s in setups] + [c["setup_s"] for c in calls]
        values = {
            "seeds_per_s": statistics.median(rates[False]),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in calls),
            "iwa_error": workload.iwa_error([c["payload"] for c in firsts]),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
              "seed_lists": seed_lists, "env": env, "check": check,
              "repeats_identical": repeats_identical, "result": result,
              "calls": [{k: v for k, v in c.items() if k != "payload"} for c in calls]}
    with open(os.path.join(run_dir, "result.json"), "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    return result, env


def _layer_metrics(traced_calls, rates):
    """Per-layer medians over traced calls; counters must agree exactly."""
    layers = [c["layers"] for c in traced_calls]
    exact = all(lay[k] == layers[0][k] for lay in layers for k in EXACT_COUNTERS)
    metrics = {k: (statistics.median(lay[k] for lay in layers), unit)
               for k, unit in LAYER_METRICS.items()}
    traced_rate = statistics.median(rates[True])
    metrics["trace.seeds_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead"] = (statistics.median(rates[False]) / traced_rate - 1.0, "ratio")
    metrics["trace.spans"] = (statistics.median(c["spans"] for c in traced_calls), "count")
    return metrics, exact


# --- command line ---------------------------------------------------------------


def _print_summary(name, result):
    failed_frac = result["failed"] / result["attempted"]
    cells = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
    cells.append(f"failed_frac={failed_frac:.6g} ratio")
    print(f"{name}: " + "  ".join(cells) + f"  correct={result['correct']}")


def main(argv=None):
    # A terminated run still kills and reaps its worker: subprocess.run does
    # so on any exception, and this turns SIGTERM into one.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name], env = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("env: " + json.dumps(env))
            _print_summary(name, results[name])
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
