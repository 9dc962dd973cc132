"""The benchmark's correctness check (perfbench/worker.py, check mode) still passes.

The check builds one seed's instance, models and ratio through ``harness``
and compares ``aggregation.iwa(models, ...)`` with an independent numpy
``c = G+ g``. A change to any call it makes that breaks the benchmark shows
here in about a second, not only in the slow ``pytest perfbench``. The
worker runs in a fresh interpreter, as the benchmark runs it.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# CHECK_REL_TOL of perfbench/run.py: the tolerance as a share of max|c|.
REL_TOL = 1e-8


@pytest.mark.parametrize("config", ["sinc_near_optimality.cfg", "correlation.cfg"])
def test_worker_check_passes(config):
    request = {"root": ROOT, "config": os.path.join("configs", config), "seeds": [0],
               "mode": "check", "rel_tol": REL_TOL, "results": None}
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"), json.dumps(request)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["ok"], result
