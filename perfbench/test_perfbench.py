"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They start the real benchmark (about four minutes in all, most of it the
traced sensitivity runs) and are not part of the package's test suite.
"""

import json
import os
import shutil
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracing import EXACT_COUNTERS, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_exact_counters_repeat_and_layers_carry_units(workload):
    first, second = (_result(_bench(workload, 7, trace=1)) for _ in range(2))
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in EXACT_COUNTERS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert (first["metrics"]["selection.calls"]["value"] > 0) == (workload == "sinc-run")


def test_end_to_end_metrics_carry_units():
    result = _result(_bench("sinc-run", 7, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = _bench("sinc-run", 7, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _spin(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_self_time_excludes_child_spans():
    layer = types.SimpleNamespace()
    layer.inner = lambda: _spin(0.02)

    def outer():
        _spin(0.01)
        layer.inner()

    layer.outer = outer
    tracer = Tracer()
    tracer.patch(layer, "inner", "child")
    tracer.patch(layer, "outer", "parent")
    layer.outer()
    outer_span, inner_span = tracer.spans
    assert inner_span.parent is outer_span and outer_span.parent is None
    own = (outer_span.end - outer_span.start) - outer_span.child_s
    assert 0.009 < own < 0.019
    assert outer_span.child_s >= inner_span.end - inner_span.start
