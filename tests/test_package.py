"""The package's public names: ``__all__`` lists exactly what ``__init__`` imports."""

import ast
import os
import subprocess
import sys

import shiftagg


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
