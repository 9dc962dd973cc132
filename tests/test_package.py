"""The package's public surface.

``__all__`` lists exactly what ``__init__`` imports, the settings no study
varies are module constants that no function takes as a parameter, and the
modes and entry points no study uses are gone.
"""

import ast
import os
import subprocess
import sys

import numpy as np
import pytest

import shiftagg
from shiftagg import datasets, density_ratio, harness, linalg, models


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


@pytest.mark.parametrize("call", [
    pytest.param(lambda: datasets.make_sinc_shift(5, 5, noise_std=0.1), id="sinc-noise_std"),
    pytest.param(lambda: datasets.make_transformed_moons(5, 5, noise=0.1), id="moons-noise"),
    pytest.param(lambda: datasets.make_transformed_moons(5, 5, translation=(0.0, 0.0)),
                 id="moons-translation"),
    pytest.param(lambda: datasets.moons_transform(np.zeros((1, 2)), translation=(0.0, 0.0)),
                 id="moons_transform-translation"),
    pytest.param(lambda: datasets.sinc_ratio(bound=10.0), id="sinc_ratio-bound"),
    pytest.param(lambda: datasets.load_csv_instance("s.csv", "t.csv", "e.csv", seed=0),
                 id="load_csv_instance-seed"),
    pytest.param(lambda: datasets.DomainAdaptationInstance(*[np.zeros((1, 1))] * 5, seed=0),
                 id="instance-seed"),
    *[pytest.param(lambda key=key: density_ratio.fit_domain_classifier(
        np.zeros((2, 1)), np.ones((2, 1)), **{key: 1.0}), id=f"domain-{key}")
      for key in ("epochs", "lr", "bound")],
    pytest.param(lambda: models.fit_softmax_classifier(np.zeros((2, 1)), np.array([0, 1]), 2,
                                                       lr=0.5), id="softmax-lr"),
])
def test_retired_parameters_raise_type_error(call):
    # Fixed settings of the studies are module constants, not parameters.
    with pytest.raises(TypeError, match="argument"):
        call()


def test_softmax_gradient_is_not_exported():
    assert not hasattr(models, "softmax_cross_entropy_grad")


@pytest.mark.parametrize("owner, name", [
    (shiftagg, "sym_eig"), (linalg, "sym_eig"), (shiftagg, "DensityRatio"),
    (density_ratio, "DensityRatio"), (harness, "emit_plots"),
])
def test_retired_entry_points_are_gone(owner, name):
    assert not hasattr(owner, name)


def test_fit_ridge_needs_a_ridge():
    with pytest.raises(TypeError, match="ridge"):
        models.fit_ridge(np.zeros((2, 1)), np.zeros((2, 1)))


def test_softmax_weight_decay_must_be_a_sequence():
    with pytest.raises(ValueError, match="1-d sequence"):
        models.fit_softmax_classifier(np.zeros((2, 1)), np.array([0, 1]), 2, weight_decay=0.5)
