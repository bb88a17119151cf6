"""The public API: every exported name resolves, once, removed names stay gone,
and no library module imports a name it does not use."""

import ast
import importlib
from pathlib import Path

import pytest

import sheafloci
from sheafloci.serialize import SCHEMAS

# (module, attribute path) of helpers removed from the library
REMOVED = [
    ("sheafloci.singloci", "stratum_codim"),
    ("sheafloci.singloci", "transversality"),
    ("sheafloci.singloci", "singular_subspace"),
    ("sheafloci.linsys", "intersect"),
    ("sheafloci.kronecker", "SheafMatrix.full_matrix"),
    ("sheafloci.poly", "LocalPoly.truncated"),
    ("sheafloci.poly", "LocalPoly.shifted"),
    ("sheafloci.serialize", "subspace_to_dict"),
    ("sheafloci.poly", "euler_relation_holds"),
    ("sheafloci.exactalg", "stack_rows"),
    ("sheafloci.exactalg", "QMatrix.stack"),
    ("sheafloci.exactalg", "QMatrix.transpose"),
    ("sheafloci.singloci", "_correction_forms"),
    ("sheafloci.linsys", "separating_form"),
    ("sheafloci.schemes", "normalize"),
    ("sheafloci.exactalg", "QMatrix.zeros"),
    ("sheafloci.poly", "_infer_column_degrees"),
    ("sheafloci.exactalg", "rank"),
    ("sheafloci.exactalg", "rref"),
    ("sheafloci.linsys", "ProjSubspace.whole"),
    ("sheafloci.linsys", "ProjSubspace._integer_functionals"),
]


def test_every_exported_name_resolves():
    missing = [name for name in sheafloci.__all__ if not hasattr(sheafloci, name)]
    assert missing == []


def test_no_exported_name_repeats():
    assert len(set(sheafloci.__all__)) == len(sheafloci.__all__)


@pytest.mark.parametrize("module,path", REMOVED)
def test_removed_name_is_absent(module, path):
    *owners, name = path.split(".")
    obj = importlib.import_module(module)
    for owner in owners:
        obj = getattr(obj, owner)
    assert not hasattr(obj, name)
    assert name not in sheafloci.__all__
    assert not hasattr(sheafloci, name)


def test_subspace_schema_is_gone():
    assert "subspace" not in SCHEMAS


def test_no_unused_imports():
    unused = []
    for path in sorted(Path(sheafloci.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert unused == []
