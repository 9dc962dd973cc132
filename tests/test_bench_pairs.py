"""scripts/bench_pairs.py on hand-made runs: each metric's verdict and a workload's BENCH entry."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict


def test_identical_runs_are_bit_equal():
    runs = [0.0068799631285571886] * 5
    assert verdict(runs, list(runs), "lower", 0.25) == (0.0, "bit-equal")


def test_a_small_change_is_within_its_bound():
    change, found = verdict([100, 101, 102, 103, 104], [90, 91, 92, 93, 94], "higher", 0.25)
    assert found == "within"
    assert change == pytest.approx(-10 / 102)


def test_a_change_past_the_bound_is_beyond():
    change, found = verdict([100, 101, 102, 103, 104], [70, 71, 72, 73, 74], "higher", 0.25)
    assert found == "beyond"
    assert change == pytest.approx(-30 / 102)


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    # quartiles 25 and 175: a distance of 150 against 0.25 x 100 = 25
    base = [0, 50, 100, 150, 200]
    assert verdict(base, [60, 60, 60, 60, 60], "higher", 0.25)[1] == "unresolved"
    # even a work median worse by more than the bound is not called beyond
    assert verdict(base, [10, 10, 10, 10, 10], "higher", 0.25)[1] == "unresolved"


def test_a_wide_base_is_resolved_when_every_work_run_beats_every_base_run():
    base = [0, 50, 100, 150, 200]
    assert verdict(base, [201, 202, 203, 204, 205], "higher", 0.25)[1] == "within"
    assert verdict(base, [-5, -4, -3, -2, -1], "lower", 0.25)[1] == "within"


def test_a_work_spread_wider_than_the_bound_is_unresolved():
    # Two metrics of the A/A file BENCH_943e135.json (moons-correlation, identical
    # code on both sides): the base spreads within the bound and the work side does
    # not, so a median 30% apart shows nothing about the code.
    base = [60.960345136991485, 59.320522306803966, 55.37887724687058, 58.14231685825428,
            45.2021237098974]
    work = [38.06708092685302, 38.0037910295311, 56.088297945125305, 60.054810584304825,
            40.66892592240396]
    change, found = verdict(base, work, "higher", 0.25)
    assert (round(change, 3), found) == (-0.301, "unresolved")
    base = [0.1333237645, 0.140622977, 0.142909303, 0.139187839, 0.174184658]
    work = [0.2090589845, 0.209027487, 0.142630595, 0.136340171, 0.188667083]
    change, found = verdict(base, work, "lower", 0.25)
    assert (round(change, 3), found) == (0.342, "unresolved")


def test_a_zero_base_median_reports_no_relative_change():
    assert verdict([0.0] * 5, [1.0] * 5, "lower", 0.25) == (None, "beyond")


def test_each_metric_is_read_with_its_direction_and_bound():
    metrics = bench_pairs.end_to_end(ROOT)
    assert metrics == {"seeds_per_s": ("higher", 0.25), "setup_s": ("lower", 0.25),
                       "peak_rss_mb": ("lower", 0.1), "iwa_error": ("lower", 0.25)}
    base, rise = [10.0] * 5, [15.0] * 5
    found = {name: verdict(base, rise, better, bound)[1]
             for name, (better, bound) in metrics.items()}
    assert found == {"seeds_per_s": "within", "setup_s": "beyond", "peak_rss_mb": "beyond",
                     "iwa_error": "beyond"}


def test_a_claim_is_met_when_every_pair_is_won_past_the_base_spread():
    base = [44.0, 44.1, 43.9, 44.05, 43.95, 44.0, 44.1, 43.9, 44.02, 43.98]
    work = [42.1, 42.0, 42.05, 42.1, 42.08, 42.03, 42.1, 42.0, 42.06, 42.04]
    assert bench_pairs.claim_met(base, work, "lower")


def test_a_claim_is_not_met_on_eight_wins_in_ten():
    base = [100.0] * 10
    work = [110.0] * 8 + [100.0, 90.0]  # a tie counts for neither side
    assert bench_pairs.pairs_won(base, work, "higher") == 8
    assert not bench_pairs.claim_met(base, work, "higher")
    assert bench_pairs.claim_met(base, [110.0] * 9 + [90.0], "higher")


def test_a_claim_is_not_met_by_a_change_within_the_base_spread():
    # Every pair is won, but the base quartiles lie 10 apart against a change of 5.
    base = [90.0, 95.0, 100.0, 105.0, 110.0] * 2
    work = [b + 5.0 for b in base]
    assert bench_pairs.pairs_won(base, work, "higher") == 10
    assert not bench_pairs.claim_met(base, work, "higher")
    assert bench_pairs.claim_met(base, [b + 20.0 for b in base], "higher")


def test_a_claim_is_read_in_the_metric_direction():
    base = [10.0] * 10
    assert bench_pairs.claim_met(base, [8.0] * 10, "lower")
    assert not bench_pairs.claim_met(base, [8.0] * 10, "higher")
    assert bench_pairs.claim_met(base, [12.0] * 10, "higher")
    assert not bench_pairs.claim_met(base, [12.0] * 10, "lower")
    assert not bench_pairs.claim_met(base, list(base), "lower")


def _run(correct, values, before, after):
    """One hand-made run: its perfbench result and its (load, steal ticks) readings."""
    units = {"seeds_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "iwa_error": "unitless"}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return {"result": {"correct": correct, "metrics": metrics}, "before": before, "after": after}


def _keys(value):
    return {k: _keys(v) for k, v in value.items()} if isinstance(value, dict) else None


def test_the_bench_entry_of_one_workload():
    runs = {
        "base": [
            _run(True, {"seeds_per_s": 100.0, "setup_s": 1.0, "peak_rss_mb": 40.0,
                        "iwa_error": 0.01}, (0.5, 1000), (0.7, 1100)),
            _run(True, {"seeds_per_s": 102.0, "setup_s": 1.0, "peak_rss_mb": 60.0,
                        "iwa_error": 0.01}, (0.7, 1100), (0.9, 1100)),
        ],
        "work": [
            _run(True, {"seeds_per_s": 101.0, "setup_s": 2.0, "peak_rss_mb": 50.0,
                        "iwa_error": 0.01}, (1.0, 2000), (1.2, 2050)),
            _run(False, {"seeds_per_s": 102.0, "setup_s": 2.0, "peak_rss_mb": 45.0,
                         "iwa_error": 0.01}, (1.2, 2050), (1.1, 2350)),
        ],
    }
    metrics = bench_pairs.end_to_end(ROOT)
    entry = bench_pairs.workload_entry(runs, metrics, 100)
    assert list(entry) == ["correct", *metrics, "host"]
    assert entry["correct"] == {"base": [True, True], "work": [True, False]}
    assert entry["host"] == {
        "base": {"load_before": [0.5, 0.7], "load_after": [0.7, 0.9], "steal_s": [1.0, 0.0]},
        "work": {"load_before": [1.0, 1.2], "load_after": [1.2, 1.1], "steal_s": [0.5, 3.0]},
    }
    # seeds_per_s ties its second pair and peak_rss_mb loses its first.
    assert {m: entry[m]["work_better_pairs"] for m in metrics} == {
        "seeds_per_s": 1, "setup_s": 0, "peak_rss_mb": 1, "iwa_error": 0}
    assert {m: entry[m]["verdict"] for m in metrics} == {
        "seeds_per_s": "within", "setup_s": "beyond", "peak_rss_mb": "unresolved",
        "iwa_error": "bit-equal"}
    rss = entry["peak_rss_mb"]
    assert (rss["unit"], rss["bound"]) == ("MB", 0.1)
    assert rss["change"] == pytest.approx(-0.05)
    assert rss["base"] == {"median": 50.0, "iqr": 30.0, "min": 40.0, "max": 60.0,
                           "runs": [40.0, 60.0]}
    # Two pairs: even one lost pair, or a tie, leaves a claim unmet.
    assert not any(entry[m]["claim_met"] for m in metrics)
    for metric in metrics:
        assert set(entry[metric]) == {"unit", "base", "work", "work_better_pairs", "bound",
                                      "change", "verdict", "claim_met"}
    # The layout of the files the earlier scripts wrote, plus each metric's claim.
    with open(os.path.join(ROOT, "BENCH_b913ac6.json")) as handle:
        layout = _keys(json.load(handle)["workloads"]["sinc-run"])
    for metric in metrics:
        layout[metric]["claim_met"] = None
    assert _keys(entry) == layout


@pytest.mark.parametrize("argv", [
    ["HEAD", "1"], ["HEAD", "1", "sinc-run", "moons-sensitivty"], ["HEAD", "1", "all"],
    ["HEAD", "0", "sinc-run"], ["HEAD", "two", "sinc-run"],
])
def test_a_malformed_call_exits_2_before_anything_runs(argv, capsys, monkeypatch):
    monkeypatch.setattr(bench_pairs.subprocess, "run", None)
    assert bench_pairs.main(argv) == 2
    assert "sinc-run, sinc-rate, moons-sensitivity, moons-correlation" in capsys.readouterr().err
