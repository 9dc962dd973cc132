"""The benchmark's correctness check (perfbench/worker.py, check mode) still passes.

The check builds one seed's instance, models and ratio through ``harness``
and compares ``aggregation.iwa(models, ...)`` with an independent numpy
``c = G+ g``; given a ``results.json``, it also compares the stored ``iwa``
weights of that seed. A change to any call it makes that breaks the
benchmark shows here in about a second, not only in the slow
``pytest perfbench``. The worker and the study run in fresh interpreters,
as the benchmark runs them.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# CHECK_REL_TOL of perfbench/run.py: the tolerance as a share of max|c|.
REL_TOL = 1e-8
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


def worker_check(config, results=None):
    request = {"root": ROOT, "config": os.path.join("configs", config), "seeds": [0],
               "mode": "check", "rel_tol": REL_TOL, "results": results}
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"), json.dumps(request)],
        capture_output=True, text=True, cwd=ROOT, timeout=120, env=ENV,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "config", ["sinc_near_optimality.cfg", "correlation.cfg", "rate_check.cfg"]
)
def test_worker_check_passes(config):
    result = worker_check(config)
    assert result["ok"], result


def test_worker_check_passes_on_stored_sensitivity_weights(tmp_path):
    # The moons-sensitivity workload checks the count-0 iwa weights that a
    # one-seed sensitivity call stores in its results.json.
    config = os.path.join("configs", "sensitivity.cfg")
    done = subprocess.run(
        [sys.executable, "-m", "shiftagg", "sensitivity", "--config", config, "--seeds", "0",
         "--out", str(tmp_path)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env={**ENV, "PYTHONPATH": os.path.join(ROOT, "src")},
    )
    assert done.returncode == 0, done.stderr
    result = worker_check("sensitivity.cfg", str(tmp_path / "results.json"))
    assert result["ok"], result
    assert set(result["max_abs_diff"]) == {"iwa", "results.json"}
