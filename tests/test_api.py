"""The public API: every exported name resolves, once, removed names stay gone,
the package namespace loads its modules only on first use, every annotation
resolves, and no library or test module imports a name it does not use."""

import ast
import importlib
import inspect
import typing
from functools import cached_property
from pathlib import Path

import pytest

import sheafloci
from conftest import run_fresh_python
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
    ("sheafloci.poly", "LinForm"),
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


def test_import_loads_no_submodule():
    script = (
        "import sys, sheafloci\n"
        "print(sorted(m for m in sys.modules if m.startswith('sheafloci.')))\n"
    )
    proc = run_fresh_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_dir_lists_every_exported_name():
    assert set(sheafloci.__all__) <= set(dir(sheafloci))


@pytest.mark.parametrize("name", sheafloci.__all__)
def test_exported_name_is_its_home_module_object(name):
    home = importlib.import_module(f"sheafloci.{sheafloci._EXPORTS[name]}")
    assert getattr(sheafloci, name) is getattr(home, name)


def _library_callables():
    """(qualified name, object) of every function, class and method the
    package's modules define, properties and class/static methods included."""
    found = []
    for path in sorted(Path(sheafloci.__file__).parent.glob("*.py")):
        name = "sheafloci" if path.stem == "__init__" else f"sheafloci.{path.stem}"
        module = importlib.import_module(name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != name:
                continue
            if inspect.isfunction(obj):
                found.append((f"{name}.{obj.__qualname__}", obj))
            elif inspect.isclass(obj):
                found.append((f"{name}.{obj.__qualname__}", obj))
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, cached_property):
                        member = member.func
                    if inspect.isfunction(member):
                        found.append((f"{name}.{obj.__qualname__}.{attr}", member))
    return found


def test_annotations_resolve():
    # an annotation naming a class imported only inside a function fails here
    failures = []
    for qualname, obj in _library_callables():
        try:
            typing.get_type_hints(obj)
        except Exception as e:  # NameError, AttributeError, TypeError, ...
            failures.append(f"{qualname}: {type(e).__name__}: {e}")
    assert failures == []


def test_subspace_schema_is_gone():
    assert "subspace" not in SCHEMAS


def test_no_unused_imports():
    unused = []
    library = sorted(Path(sheafloci.__file__).parent.glob("*.py"))
    for path in library + sorted(Path(__file__).parent.glob("*.py")):
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
