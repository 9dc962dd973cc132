"""The benchmark tracer (perfbench/tracing.py) still finds every boundary it wraps.

The tracer rebinds module and class attributes of the package, so a rename or
a reference captured at import time would silently hide calls from it. The run
happens in a subprocess so that its patches never reach other tests.
"""

import json
import os
import subprocess
import sys

import shiftagg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(shiftagg.__file__)))

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer
from shiftagg import cli

tracer = Tracer().install()
code = cli.main([*json.loads(sys.argv[3]), "--out", sys.argv[2]])
print(json.dumps({"exit": code, "layers": tracer.layers(sys.argv[2])}))
"""


def _traced_layers(tmp_path, args):
    """Per-layer metrics of one traced CLI call in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "perfbench"), str(tmp_path / "out"),
         json.dumps(args)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["exit"] == 0
    return result["layers"]


def test_traced_sinc_run_reaches_every_layer(tmp_path):
    layers = _traced_layers(tmp_path, ["run", "--dataset", "sinc", "--seeds", "0"])
    for name in ("aggregation.calls", "selection.calls", "linalg.pinv_calls", "plots.files",
                 "harness.self_s"):
        assert layers[name] > 0, name


def test_traced_moons_ladder_is_one_fit(tmp_path):
    # The whole softmax ladder is one traced fit of the trainer's default 300
    # steps, so its time shows under models.fit rather than in harness.self_s.
    layers = _traced_layers(tmp_path, [
        "correlate", "--config", os.path.join(ROOT, "configs", "correlation.cfg"),
        "--seeds", "0", "--n", "80", "--m", "80",
    ])
    assert layers["models.fit_calls"] == 1
    assert layers["models.fit_steps"] == 300
    assert layers["density_ratio.fit_calls"] == 1
    assert layers["models.fit_s"] > 0
