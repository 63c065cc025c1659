"""The package namespace: ``__all__`` is exactly what ``__init__`` imports,
and the package depends on nothing beyond NumPy and SciPy."""

import ast
import sys
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


ALLOWED_TOP_LEVEL = set(sys.stdlib_module_names) | {"numpy", "scipy", "gpexperts"}


def imported_top_levels(source):
    """Top-level names of every absolute import in ``source``, at any depth."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_imported_top_levels_sees_nested_and_dotted_imports():
    source = "from . import x\nimport os.path\ndef f():\n    from pandas.api import y\n"
    assert list(imported_top_levels(source)) == ["os", "pandas"]


def test_modules_import_only_the_standard_library_numpy_and_scipy():
    package = Path(gpexperts.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 1
    foreign = {
        (path.name, name)
        for path in modules
        for name in imported_top_levels(path.read_text())
        if name not in ALLOWED_TOP_LEVEL
    }
    assert not foreign
