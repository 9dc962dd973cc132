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
code = cli.main(["run", "--dataset", "sinc", "--seeds", "0", "--out", sys.argv[2]])
print(json.dumps({"exit": code, "layers": tracer.layers(sys.argv[2])}))
"""


def test_traced_sinc_run_reaches_every_layer(tmp_path):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "perfbench"), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["exit"] == 0
    layers = result["layers"]
    for name in ("aggregation.calls", "selection.calls", "linalg.pinv_calls", "plots.files",
                 "harness.self_s"):
        assert layers[name] > 0, name
