"""One shiftagg process of the benchmark, started in a fresh interpreter.

    python3 perfbench/worker.py '<request json>'

Times are CPU time of this process (user + system). The process is
single-threaded (one BLAS thread) and CPU-bound, so on an idle machine this
equals wall time; unlike wall time it leaves out the CPU time a virtual
machine's host takes away (steal), which made wall times of identical calls
differ by up to 40% on a shared 2-core VM. ``setup_s`` is the CPU time from
the interpreter's start until the config is loaded and validated, so it
covers the numpy and shiftagg imports.

Modes (``request["mode"]``):

* ``setup``: import and load the config, then report ``setup_s`` and the
  environment stamp.
* ``study``: also run one CLI study call, ``shiftagg.cli.main(argv)``, and
  report its CPU and wall time, exit code and peak RSS; with ``trace`` set, the
  per-layer metrics of that call.
* ``check``: recompute ``c = G+ g`` for one seed with plain numpy and compare
  it with ``aggregation.iwa`` and, if given, the weights in ``results.json``.

The last line of standard output is one JSON object.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _import_package(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401  (timed as part of set-up)
    import shiftagg
    from shiftagg import harness

    where = os.path.realpath(shiftagg.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"shiftagg imported from {where}, not from {src}")
    return harness


def _environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _study(request, cfg_path):
    from shiftagg import cli

    argv = [request["command"], "--config", cfg_path, "--seeds",
            ",".join(str(s) for s in request["seeds"]), "--out", request["out"]]
    argv += request["extra_args"]
    tracer = None
    if request["trace"]:
        from tracing import Tracer  # perfbench/tracing.py; the script directory leads sys.path

        tracer = Tracer().install()
    captured = io.StringIO()
    cpu_start, wall_start = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    result = {
        "cpu_s": time.process_time() - cpu_start,
        "wall_s": time.perf_counter() - wall_start,
        "exit_code": code,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.layers(request["out"])
        result["spans"] = len(tracer.spans)
    return result


def _truncated_pinv(gram, rcond):
    import numpy as np

    values, vectors = np.linalg.eigh(0.5 * (gram + gram.T))
    values = np.maximum(values, 0.0)
    keep = values > rcond * values.max()
    inverse_values = np.zeros_like(values)
    inverse_values[keep] = 1.0 / values[keep]
    return (vectors * inverse_values) @ vectors.T


def _check(request, harness, cfg):
    """Independent ``c = G+ g`` against the library, scale-free tolerance."""
    import numpy as np
    from shiftagg import aggregation
    from shiftagg.models import stack_predictions

    seed = request["seeds"][0]
    inst = harness.build_instance(cfg, seed)
    models = harness.build_models(cfg, inst)
    beta = harness.build_beta(cfg, inst)
    source = stack_predictions(models, inst.source_x)
    target = stack_predictions(models, inst.target_x)
    flat = target.reshape(len(models), -1)
    gram = flat @ flat.T / target.shape[1]
    weighted_y = beta.weights(inst.source_x)[:, None] * inst.source_y
    moment = np.einsum("lnd,nd->l", source, weighted_y) / source.shape[1]
    expected = _truncated_pinv(gram, cfg.rcond) @ moment

    scale = float(np.max(np.abs(expected)))
    tolerance = request["rel_tol"] * scale
    library = aggregation.iwa(models, inst.source_x, inst.source_y, inst.target_x, beta,
                              cfg.rcond).weights
    compared = {"iwa": float(np.max(np.abs(library - expected)))}
    if request.get("results"):
        with open(request["results"]) as handle:
            rows = json.load(handle)["rows"]
        match = [r for r in rows if r["method"] == "iwa" and r["seed"] == seed
                 and r.get("count", 0) == 0]
        if len(match) != 1 or "weights" not in match[0]:
            return {"ok": False, "seed": seed, "reason": "no iwa weights for the seed"}
        stored = np.asarray(match[0]["weights"], dtype=float)
        if stored.shape != expected.shape:
            return {"ok": False, "seed": seed, "reason": f"weights shape {stored.shape}"}
        compared["results.json"] = float(np.max(np.abs(stored - expected)))
    ok = bool(np.isfinite(scale) and scale > 0
              and all(diff <= tolerance for diff in compared.values()))
    return {"ok": ok, "seed": seed, "scale": scale, "max_abs_diff": compared}


def main(argv):
    request = json.loads(argv[1])
    harness = _import_package(request["root"])
    cfg_path = os.path.join(request["root"], request["config"])
    cfg = harness.build_config(harness.load_config_file(cfg_path),
                               {"seeds": tuple(request["seeds"])})
    cfg.validate()
    result = {"setup_s": time.process_time()}
    if request["mode"] == "setup":
        result["env"] = _environment()
    elif request["mode"] == "study":
        result.update(_study(request, cfg_path))
    else:
        result.update(_check(request, harness, cfg))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
