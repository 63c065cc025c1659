"""The package namespace: ``__all__`` is exactly what ``__init__`` imports,
the package depends on nothing beyond NumPy and SciPy, and its records that
hold arrays compare by identity."""

import ast
import sys
from pathlib import Path

import pytest

import gpexperts
from gpexperts import (
    ExpertEnsemble,
    Hyperparams,
    expert_graph,
    partition_kmeans,
    poe_aggregate,
    synth_dataset,
)
from gpexperts.gp import factorize


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


ROOT = Path(__file__).resolve().parents[1]


def public_definitions(path):
    """(name, first line, last line) of each public function, class and
    method defined in the module at ``path``."""
    for node in ast.parse(path.read_text()).body:
        inner = node.body if isinstance(node, ast.ClassDef) else []
        for defn in [node, *inner]:
            if isinstance(defn, (ast.FunctionDef, ast.ClassDef)) and not defn.name.startswith("_"):
                yield defn.name, defn.lineno, defn.end_lineno


def named_references(path):
    """(name, line) of every name, attribute, imported name and string in ``path``.

    Strings count because perfbench's tracer tables and ``bench``'s method
    table name the functions they wrap.
    """
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def test_every_public_definition_is_used_outside_the_tests():
    # Public API that only tests use belongs in the tests.  A name counts as
    # used when src/, perfbench/ or demos/ names it outside its own body.
    package = ROOT / "src" / "gpexperts"
    sources = [
        path for top in ("src", "perfbench", "demos") for path in (ROOT / top).rglob("*.py")
    ]
    references = {}
    for path in sources:
        for name, line in named_references(path):
            references.setdefault(name, set()).add((path, line))
    unused = [
        f"{path.name}:{first} {name}"
        for path in sorted(package.rglob("*.py"))
        for name, first, last in public_definitions(path)
        if not any(p != path or not first <= line <= last for p, line in references.get(name, ()))
    ]
    assert not unused


def array_records():
    """One build of each record type that holds arrays, made from scratch."""
    data = synth_dataset(n=60, n_test=12, seed=3)
    parts = partition_kmeans(data.x_train, 3, seed=4)
    experts = [
        factorize(data.x_train[idx], data.y_train[idx], Hyperparams(1.0, [0.3], 0.01))
        for idx in map(parts.indices, range(3))
    ]
    ensemble = ExpertEnsemble(experts, experts[0].hp)
    return {
        "Dataset": data,
        "Partitioning": parts,
        "GpModel": experts[0],
        "ExpertEnsemble": ensemble,
        "ExpertGraph": expert_graph(ensemble, data.x_test, lam=0.1, alpha=0.5),
        "PredictiveDist": poe_aggregate(ensemble, data.x_test),
    }


@pytest.mark.parametrize("name", sorted(array_records()))
def test_array_records_compare_by_identity(name):
    # A generated __eq__ would compare the arrays themselves and raise
    # "truth value ... is ambiguous"; __hash__ would be None.
    a, b = array_records()[name], array_records()[name]
    assert type(a).__name__ == name
    assert a == a and not a == b and a != b
    assert hash(a) == hash(a) and hash(a) != hash(b)
