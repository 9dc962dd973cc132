"""The verdicts scripts/bench_summary.py gives each bench metric, on hand-made run lists."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_summary", os.path.join(ROOT, "scripts", "bench_summary.py"))
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)
verdict = bench_summary.verdict


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


def test_a_zero_base_median_reports_no_relative_change():
    assert verdict([0.0] * 5, [1.0] * 5, "lower", 0.25) == (None, "beyond")


def test_each_metric_is_read_with_its_direction_and_bound():
    metrics = bench_summary.end_to_end(ROOT)
    assert metrics == {"seeds_per_s": ("higher", 0.25), "setup_s": ("lower", 0.25),
                       "peak_rss_mb": ("lower", 0.1), "iwa_error": ("lower", 0.25)}
    base, rise = [10.0] * 5, [15.0] * 5
    found = {name: verdict(base, rise, better, bound)[1]
             for name, (better, bound) in metrics.items()}
    assert found == {"seeds_per_s": "within", "setup_s": "beyond", "peak_rss_mb": "beyond",
                     "iwa_error": "beyond"}
