"""Value semantics of the package's fourteen record classes.

Every class built on errors.Record behaves as a frozen value: built by
position or keyword, equal and hashed by its fields, equal only to its
own class, immutable, printed as Name(field=value, ...), validated on
construction, and with cached properties computed once per instance.
"""

from fractions import Fraction

import pytest

from sheafloci import schemes
from sheafloci.errors import ConfigError, Record, ShapeError
from sheafloci.exactalg import QMatrix
from sheafloci.kronecker import IdealResolution, KroneckerModule, SheafMatrix, kronecker_from_points
from sheafloci.linsys import Fibre, ProjSubspace, fibre
from sheafloci.localfree import CurveGerm, FatIdealData
from sheafloci.poly import HomPoly, LocalPoly, monomial_count, parse_local
from sheafloci.schemes import FatPoint, PointConfig, SimplePoint, random_config
from sheafloci.singloci import SingularLocusReport, locus_report


def _generic():
    return random_config(5, 1)


def _double():
    return random_config(5, 1, stratum="double")


def _sheaf_matrix():
    phi = kronecker_from_points(_generic()).phi
    quad = tuple(HomPoly.monomial(2, (2, 0, 0), i + 1) for i in range(phi.nrows))
    return SheafMatrix(quad, phi)


# class -> (field names in order, a fresh library-built instance)
RECORDS = {
    QMatrix: (
        ("rows", "cols", "entries"),
        lambda: QMatrix.from_rows([[1, 2], [3, Fraction(1, 4)]]),
    ),
    HomPoly: (("degree", "coeffs"), lambda: HomPoly.from_coeffs(1, [1, 0, -2])),
    LocalPoly: (("coeffs",), lambda: parse_local("x^2 - y^3")),
    SimplePoint: (("coords",), lambda: SimplePoint.of(1, 2, 3)),
    FatPoint: (("support", "frame", "h", "mult"), lambda: _double().fat[0]),
    PointConfig: (("degree", "simple", "fat"), _double),
    ProjSubspace: (
        ("ambient", "pivots", "free_columns", "block", "den"),
        lambda: ProjSubspace.cut_by(fibre(_generic()).membership, monomial_count(5) - 1),
    ),
    Fibre: (("config", "membership", "members"), lambda: fibre(_generic())),
    SingularLocusReport: (
        ("degree", "stratum", "fibre_dim", "point_codims", "pair_codims",
         "triple_codims", "subset_codims"),
        lambda: locus_report(fibre(_generic()), triples=True, extra_subsets=[(1, 2, 3, 4)]),
    ),
    KroneckerModule: (("entries",), lambda: kronecker_from_points(_generic()).phi),
    IdealResolution: (("phi", "generators"), lambda: kronecker_from_points(_generic())),
    SheafMatrix: (("quad", "phi"), _sheaf_matrix),
    CurveGerm: (("f",), lambda: CurveGerm(parse_local("x^2 - y^3"))),
    FatIdealData: (("h", "mult"), lambda: FatIdealData.of([0, 1], 3)),
}

# class -> (one field replaced by an invalid value, error, message pattern)
INVALID = {
    QMatrix: (lambda v: dict(v, entries=v["entries"][:1]), ValueError, "entry count"),
    HomPoly: (lambda v: dict(v, coeffs=v["coeffs"][:1]), ValueError, "coefficient vector"),
    SimplePoint: (lambda v: dict(v, coords=(0, 0, 0)), ConfigError, r"\(0:0:0\)"),
    FatPoint: (lambda v: dict(v, mult=1), ConfigError, "multiplicity must be at least 2"),
    PointConfig: (lambda v: dict(v, degree=3), ConfigError, "degree must be at least 4"),
    KroneckerModule: (lambda v: dict(v, entries=v["entries"][:1]), ShapeError, "at least two rows"),
    SheafMatrix: (lambda v: dict(v, quad=v["quad"][:-1]), ShapeError, "quadratic column"),
    CurveGerm: (lambda v: dict(v, f=LocalPoly(())), ConfigError, "nonzero"),
    FatIdealData: (lambda v: dict(v, mult=0), ConfigError, "multiplicity must be at least 1"),
}

# class -> (cached property, the module and name of the function that
# computes it)
CACHED = {
    SimplePoint: ("primitive", schemes, "integer_row"),
    FatPoint: ("axes", schemes, "integer_row"),
    PointConfig: ("admissible", schemes, "not_on_curve_of_degree"),
}

IDS = [cls.__name__ for cls in RECORDS]


@pytest.fixture(scope="module")
def samples():
    return {cls: build() for cls, (_, build) in RECORDS.items()}


def _values(obj):
    fields = next(fields for cls, (fields, _) in RECORDS.items() if isinstance(obj, cls))
    return {f: getattr(obj, f) for f in fields}


def test_every_record_class_is_covered():
    assert len(RECORDS) == 14
    assert all(issubclass(cls, Record) for cls in RECORDS)
    assert set(INVALID) | set(CACHED) <= set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_equal_values_give_equal_objects_and_hashes(cls):
    _, build = RECORDS[cls]
    a, b = build(), build()
    assert a is not b
    assert type(a) is cls
    assert a == b and not a != b
    assert hash(a) == hash(b)
    if cls.__hash__ is Record.__hash__:  # SimplePoint hashes its primitive representative
        assert hash(a) == hash(tuple(_values(a).values()))
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_keyword_and_positional_construction_agree(cls):
    fields, build = RECORDS[cls]
    values = _values(build())
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    mixed = cls(*list(values.values())[:1], **dict(list(values.items())[1:]))
    assert by_position == by_keyword == mixed
    assert _values(by_keyword) == values
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    with pytest.raises(TypeError):
        cls(*list(values.values())[:-1])
    with pytest.raises(TypeError):
        cls(**values, unknown=None)
    with pytest.raises(TypeError):
        cls(*values.values(), **{fields[0]: values[fields[0]]})


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_instances_of_different_classes_are_never_equal(cls, samples):
    obj = samples[cls]
    assert obj.__eq__(tuple(_values(obj).values())) is NotImplemented
    for other_cls, other in samples.items():
        if other_cls is not cls:
            assert obj != other and not obj == other
    if cls.__eq__ is Record.__eq__:  # SimplePoint compares projective points
        twin = type(f"Twin{cls.__name__}", (cls,), {})(**_values(obj))
        assert _values(twin) == _values(obj)
        assert obj != twin and twin != obj
        assert obj.__eq__(twin) is NotImplemented


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_other_comparisons_are_not_implemented(cls, samples):
    obj = samples[cls]
    assert obj.__lt__(obj) is NotImplemented
    with pytest.raises(TypeError):
        obj < obj


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise(cls):
    fields, build = RECORDS[cls]
    obj = build()
    before = _values(obj)
    for name in (*fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert _values(obj) == before


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, samples):
    obj = samples[cls]
    body = ", ".join(f"{f}={v!r}" for f, v in _values(obj).items())
    assert repr(obj) == f"{cls.__name__}({body})"


def test_repr_literal():
    assert repr(QMatrix(1, 1, (Fraction(2),))) == "QMatrix(rows=1, cols=1, entries=(Fraction(2, 1),))"
    assert repr(FatIdealData.of([0, 1], 3)) == "FatIdealData(h=(Fraction(0, 1), Fraction(1, 1)), mult=3)"


@pytest.mark.parametrize("cls", INVALID, ids=[cls.__name__ for cls in INVALID])
def test_invalid_fields_raise_the_typed_error(cls, samples):
    change, error, pattern = INVALID[cls]
    values = _values(samples[cls])
    cls(**values)
    with pytest.raises(error, match=pattern):
        cls(**change(values))
    with pytest.raises(error, match=pattern):
        cls(*change(values).values())


@pytest.mark.parametrize("cls", CACHED, ids=[cls.__name__ for cls in CACHED])
def test_cached_property_is_computed_once(cls, samples, monkeypatch):
    name, module, helper = CACHED[cls]
    obj = cls(**_values(samples[cls]))
    fresh = cls(**_values(obj))
    calls = []
    inner = getattr(module, helper)
    monkeypatch.setattr(module, helper, lambda *a: calls.append(a) or inner(*a))
    first = getattr(obj, name)
    assert len(calls) == 1
    assert getattr(obj, name) is first
    assert len(calls) == 1
    # a cached value is no field: equality and hash stay those of the fields
    assert obj == fresh and hash(obj) == hash(fresh)
    assert name not in repr(obj)
