"""The package's public names: ``__all__`` lists exactly what ``__init__`` imports."""

import ast
import os

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
