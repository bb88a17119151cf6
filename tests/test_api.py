"""The public API: every exported name resolves, once, removed names stay gone,
the package namespace loads its modules only on first use, every annotation
resolves, no library or test module imports a name it does not use, and
every library function, class, method and module-level alias has a caller
in the library."""

import ast
import importlib
import inspect
import typing
from collections import Counter
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
    ("sheafloci.poly", "HomPoly.variable"),
    ("sheafloci.poly", "HomPoly.coefficient"),
    ("sheafloci.poly", "HomPoly.eval"),
    ("sheafloci.poly", "HomPoly.partial"),
    ("sheafloci.poly", "LocalPoly.variable"),
    ("sheafloci.poly", "LocalPoly.constant"),
    ("sheafloci.poly", "LocalPoly.eval"),
    ("sheafloci.poly", "parse"),
    ("sheafloci.exactalg", "QMatrix.matmul"),
    ("sheafloci.exactalg", "QMatrix.__matmul__"),
    ("sheafloci.kronecker", "KroneckerModule.with_column"),
    ("sheafloci.localfree", "maximal_ideal_free"),
    ("sheafloci.linsys", "Fibre.random_element"),
    ("sheafloci.exactalg", "Rational"),
    ("sheafloci.linsys", "Fibre.space"),
    ("sheafloci.linsys", "Fibre.element"),
    ("sheafloci.linsys", "Fibre.basis_forms"),
    ("sheafloci.singloci", "_compressed_block"),
    ("sheafloci.exactalg", "rref_rows"),
    ("sheafloci.exactalg", "QMatrix.identity"),
    ("sheafloci.exactalg", "QMatrix.col"),
    ("sheafloci.schemes", "SimplePoint.canonical"),
    ("sheafloci.schemes", "SimplePoint.integer_coords"),
    ("sheafloci.schemes", "length"),
    ("sheafloci.schemes", "length_of"),
    ("sheafloci.poly", "LocalPoly.scale"),
    ("sheafloci.poly", "LocalPoly.__rmul__"),
    ("sheafloci.poly", "LocalPoly.zero"),
    ("sheafloci.exactalg", "rat_from_str"),
    ("sheafloci.exactalg", "rat_to_str"),
    ("sheafloci.exactalg", "extend_mod_p"),
    ("sheafloci.schemes", "collinear"),
    ("sheafloci.singloci", "_subset_minor"),
    ("sheafloci.localfree", "default_truncation"),
    ("sheafloci.localfree", "_nakayama_dims"),
    ("sheafloci.serialize", "MAX_TRUNCATION"),
    ("sheafloci.schemes", "simple_point_row"),
    ("sheafloci.schemes", "fat_point_rows"),
    ("sheafloci.schemes", "_completion_matrix"),
    ("sheafloci.singloci", "gradient_rows"),
    ("sheafloci.schemes", "FatPoint.branch_coordinates"),
    ("sheafloci.exactalg", "QMatrix.apply"),
    ("sheafloci.schemes", "FatPoint.chart"),
    ("sheafloci.exactalg", "solve"),
]

# library names that no other library code refers to, each with the reason
# it stays
KEPT = {
    "linsys.ProjSubspace": "the exact fibre that tests compare against",
    "linsys.ProjSubspace.cut_by": "builds the exact fibre that tests compare against",
    "linsys.ProjSubspace.basis": (
        "linsys's only use of kernel, the linsys.kernel binding the "
        "benchmark's tracer test reads"
    ),
    "linsys.ProjSubspace.compress_functional": (
        "the benchmark tracer's linsys.compress target"
    ),
    "kronecker.SheafMatrix.curve": "the curve of a bordered matrix",
    "kronecker.pair_from_curve": "the paper's curve-to-sheaf direction",
    "kronecker.resolution_check": "the determinantal identities of a resolution",
    "localfree.germ_at_fat_point": "a projective curve's germ at a fat point",
    "localfree.random_membership_germ": "seeded germs of criterion 6 and the cli workload",
    "singloci.classify_curve": "the singular points of one curve's sheaf",
    "singloci.impose_singularities": "curves singular at chosen points",
    "poly.parse_homogeneous": "reads forms such as genericity certificates",
    "cli._Parser.error": "argparse's hook for usage errors",
}


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


def test_library_has_no_assert_statement():
    # python -O strips asserts, so invariants raise typed errors instead
    found = []
    for path in sorted(Path(sheafloci.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend(
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        )
    assert found == []


def test_only_exactalg_takes_a_modular_inverse():
    # one mod-P core: linsys and singloci read exactalg's monic echelon
    found = []
    for path in sorted(Path(sheafloci.__file__).parent.glob("*.py")):
        if path.name == "exactalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "pow"
            and len(node.args) == 3
            and ast.unparse(node.args[1]) == "-1"
        )
    assert found == []


def test_only_exactalg_binds_the_modulus():
    # linsys and singloci read exactalg._PRIME at call time, so the
    # tiny-prime test sets the modulus of every certificate in one place
    found = []
    for path in sorted(Path(sheafloci.__file__).parent.glob("*.py")):
        if path.name == "exactalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend(
            f"{path.name}:{getattr(node, 'lineno', '')}"
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "_PRIME")
            or (isinstance(node, ast.alias) and "_PRIME" in (node.name, node.asname))
        )
    assert found == []


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _alias(node):
    """The name a module-level `Name = Name` assignment binds, else None."""
    if (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Name)
    ):
        return node.targets[0].id
    return None


def _definitions(tree):
    """(qualified name, name, node) of the module-level functions, classes
    and aliases and of the classes' methods, dunder names left out."""
    for node in tree.body:
        alias = _alias(node)
        if alias is not None and not _is_dunder(alias):
            yield alias, alias, node
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or _is_dunder(node.name):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name, item


def _references(node):
    """Names the code refers to: variables, attributes and imported names,
    an imported name under its own name too when bound with "as"."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def _method_references(node, classes):
    """(class, method name) of each attribute reference in the code: the
    class when the receiver is the bare name of a library class, as in
    `HomPoly.zero`, else None, as in `self.zero` or `f.zero`."""
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            receiver = n.value.id if isinstance(n.value, ast.Name) else None
            yield (receiver if receiver in classes else None), n.attr


def test_every_library_name_has_a_src_caller():
    # a method counts only attribute references, by its own class or by
    # an unknown receiver, so a call of HomPoly.zero or a variable named
    # zero does not count for LocalPoly.zero
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(sheafloci.__file__).parent.glob("*.py"))
    }
    classes = {
        node.name for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)
    }
    names = Counter(name for tree in trees.values() for name in _references(tree))
    methods = Counter(ref for tree in trees.values() for ref in _method_references(tree, classes))
    defined, uncalled = set(), []
    for module, tree in trees.items():
        for qualname, name, node in _definitions(tree):
            key = f"{module}.{qualname}"
            defined.add(key)
            # references inside the definition itself do not count
            if qualname == name:
                called = names[name] > Counter(_references(node))[name]
            else:
                inside = Counter(_method_references(node, classes))
                owner = qualname.split(".")[0]
                called = any(methods[ref] > inside[ref] for ref in ((owner, name), (None, name)))
            if not called and key not in KEPT:
                uncalled.append(key)
    assert uncalled == []
    assert set(KEPT) <= defined
