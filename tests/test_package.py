"""The package's public surface.

``__all__`` lists exactly what ``__init__`` imports, the settings no study
varies are module constants that no function takes as a parameter, the
modes and entry points no study uses are gone, and imports between the
package's modules run downward and name only public names.
"""

import ast
import os
import subprocess
import sys

import numpy as np
import pytest

import shiftagg
from shiftagg import (aggregation, datasets, density_ratio, harness, linalg, metrics, models,
                      plots)


def _imported_public_names():
    with open(os.path.join(os.path.dirname(shiftagg.__file__), "__init__.py")) as handle:
        tree = ast.parse(handle.read())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_exported_name_resolves():
    missing = [name for name in shiftagg.__all__ if not hasattr(shiftagg, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(shiftagg.__all__) == len(set(shiftagg.__all__))


def test_exports_are_the_imported_public_names():
    assert set(shiftagg.__all__) == _imported_public_names()


def test_cli_import_leaves_numpy_polynomial_out():
    # Every CLI call pays for its imports, and numpy.polynomial alone costs
    # 4-8 ms; the Gauss-Hermite rule is built without it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(shiftagg.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, shiftagg.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _keyword(call, owner, name):
    """A call that passes the retired keyword ``name``."""
    return pytest.param(call, f"unexpected keyword argument '{name}'", id=f"{owner}-{name}")


def _positional(call, case):
    """A call that passes a retired parameter by position."""
    return pytest.param(call, "positional argument", id=case)


@pytest.mark.parametrize("call, message", [
    _keyword(lambda: datasets.make_sinc_shift(5, 5, noise_std=0.1), "sinc", "noise_std"),
    *[_keyword(lambda key=key: datasets.make_sinc_shift(5, 5, **{key: 4}), "sinc", key)
      for key in ("eval_size", "eval_nodes")],
    _positional(lambda: datasets.make_sinc_shift(5, 5, 1, 0), "sinc-positional-eval_size"),
    _keyword(lambda: datasets.make_transformed_moons(5, 5, noise=0.1), "moons", "noise"),
    _keyword(lambda: datasets.make_transformed_moons(5, 5, eval_size=4), "moons", "eval_size"),
    _positional(lambda: datasets.make_transformed_moons(5, 5, 4, 0),
                "moons-positional-eval_size"),
    _keyword(lambda: datasets.make_transformed_moons(5, 5, translation=(0.0, 0.0)),
             "moons", "translation"),
    _keyword(lambda: datasets.moons_transform(np.zeros((1, 2)), translation=(0.0, 0.0)),
             "moons_transform", "translation"),
    _keyword(lambda: datasets.sinc_ratio(bound=10.0), "sinc_ratio", "bound"),
    _keyword(lambda: datasets.load_csv_instance("s.csv", "t.csv", "e.csv", seed=0),
             "load_csv_instance", "seed"),
    _keyword(lambda: datasets.DomainAdaptationInstance(*[np.zeros((1, 1))] * 5, seed=0),
             "instance", "seed"),
    *[_keyword(lambda key=key: density_ratio.fit_domain_classifier(
        np.zeros((2, 1)), np.ones((2, 1)), **{key: 1.0}), "domain", key)
      for key in ("epochs", "lr", "bound")],
    _keyword(lambda: models.fit_softmax_classifier(np.zeros((2, 1)), np.array([0, 1]), 2,
                                                   lr=0.5), "softmax", "lr"),
    _keyword(lambda: models.FeatureModel(np.square, models.LinearModel([[1.0]], [0.0]),
                                         input_dim=1), "feature", "input_dim"),
    _keyword(lambda: density_ratio.GaussianRatio(0.0, 1.0, 1.0, 1.0, bound=10.0),
             "gaussian_ratio", "bound"),
    _keyword(lambda: density_ratio.LearnedRatio(np.zeros(1), 0.0, 1.0, bound=10.0),
             "learned_ratio", "bound"),
    _positional(lambda: datasets.moons_points(5, 0.1, np.random.default_rng(0)),
                "moons_points-noise"),
    _keyword(lambda: plots.line_chart("x.svg", [1], {"s": [1.0]}, title="t", x_label="x",
                                      y_label="y", bands={"s": ([1.0], [1.0])}),
             "line_chart", "bands"),
])
def test_retired_parameters_raise_type_error(call, message):
    # Fixed settings of the studies are module constants, not parameters.
    with pytest.raises(TypeError, match=message):
        call()


def test_softmax_gradient_is_not_exported():
    assert not hasattr(models, "softmax_cross_entropy_grad")


@pytest.mark.parametrize("owner, name", [
    (shiftagg, "sym_eig"), (linalg, "sym_eig"), (shiftagg, "DensityRatio"),
    (density_ratio, "DensityRatio"), (harness, "emit_plots"),
    (shiftagg, "empirical_gram"), (shiftagg, "empirical_moment"),
    (aggregation, "empirical_gram"), (aggregation, "empirical_moment"),
    (aggregation, "_label_regression"), (aggregation, "_solve_aggregation"),
    (aggregation, "_moment"), (models, "_sample_matrix"), (aggregation, "_checked_stack"),
    (aggregation, "_row_weights"), (datasets, "check_class_labels"), (datasets, "one_hot"),
    (metrics, "_argmax_is_class1"), (models.PrecomputedModel, "from_csv"),
    (metrics, "CSV_COLUMNS"), (harness, "rate_medians"), (harness, "rate_slope"),
    (harness, "rate_strictly_decreasing"), (harness, "correlation_summary"),
    (harness.TableKind, "json_body"), (harness, "_per_method"), (harness._SeedContext, "rows"),
    (models, "_labelled_sample"), (models, "_softmax_grads"), (models, "_fit_one_logit"),
    (models, "SPLIT_NAMES"), (harness, "_scored_candidates"), (harness, "_batch_models"),
    (harness, "_with_corrupted"), (models, "softmax_probabilities"),
    (harness, "MOONS_EVAL_SIZE"), (harness, "ALL_METHODS"), (models, "Model"),
    (shiftagg, "Model"), (harness, "rate_spread"),
])
def test_retired_entry_points_are_gone(owner, name):
    assert not hasattr(owner, name)


def _is_broad(handler):
    """Whether an ``except`` clause catches every ordinary error."""
    caught = handler.type
    return caught is None or (isinstance(caught, ast.Name)
                              and caught.id in ("Exception", "BaseException"))


def _reraises_input_faults(handler):
    return (isinstance(handler.type, ast.Name) and handler.type.id == "INPUT_FAULTS"
            and len(handler.body) == 1 and isinstance(handler.body[0], ast.Raise)
            and handler.body[0].exc is None)


def test_only_the_study_loop_catches_every_error():
    # One loop decides whether an error fails a row or stops the run: every
    # broad handler sits in harness._study, right after a handler that lets
    # an input fault through.
    root = os.path.dirname(shiftagg.__file__)
    placed = []
    for filename in sorted(os.listdir(root)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(root, filename)) as handle:
            tree = ast.parse(handle.read())
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Try):
                    continue
                for before, handler in zip([None, *node.handlers], node.handlers):
                    if _is_broad(handler):
                        placed.append((filename, getattr(top, "name", None),
                                       before is not None and _reraises_input_faults(before)))
    assert placed == [("harness.py", "_study", True)]


# The modules the estimator needs. They read model outputs, labels and
# weights, never how an instance was drawn or stored, or how a study runs.
ESTIMATOR_MODULES = ("errors", "linalg", "metrics", "density_ratio", "models", "selection",
                     "aggregation")


def _package_imports():
    """``(module, imported module, name)`` for each import between the package's modules.

    ``from . import x`` and ``from shiftagg import x`` give ``(module, "x", None)``.
    """
    root = os.path.dirname(shiftagg.__file__)
    found = []
    for filename in sorted(os.listdir(root)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(root, filename)) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:
                target = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == "shiftagg":
                target = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                found.append((filename[:-3], target or alias.name, alias.name if target else None))
    return found


def test_imports_between_modules_run_downward_and_stay_public():
    imports = _package_imports()
    private = [entry for entry in imports if entry[2] and entry[2].startswith("_")]
    upward = sorted({(module, target) for module, target, _ in imports
                     if module in ESTIMATOR_MODULES and target in ("datasets", "harness")})
    assert (private, upward) == ([], [])


def test_fit_ridge_needs_a_ridge():
    with pytest.raises(TypeError, match="ridge"):
        models.fit_ridge(np.zeros((2, 1)), np.zeros((2, 1)))


def test_softmax_weight_decay_must_be_a_sequence():
    with pytest.raises(ValueError, match="1-d sequence"):
        models.fit_softmax_classifier(np.zeros((2, 1)), np.array([0, 1]), 2, weight_decay=0.5)
