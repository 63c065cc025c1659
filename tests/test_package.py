"""The package namespace: ``__all__`` is exactly what ``__init__`` imports."""

import ast
from pathlib import Path

import gpexperts


def imported_public_names():
    tree = ast.parse(Path(gpexperts.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_all_is_sorted_unique_and_star_importable():
    names = gpexperts.__all__
    assert names == sorted(names) and len(set(names)) == len(names)
    namespace = {}
    exec("from gpexperts import *", namespace)  # fails on a stale name
    assert set(names) <= set(namespace)


def test_all_lists_every_public_import():
    assert set(gpexperts.__all__) == imported_public_names()
