"""JSON round trips, canonical rendering, and schema rejection paths."""

import copy
import json
import re
import sys
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction
from functools import cache

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DEEP_D6, REFERENCE_POINTS_D6

from sheafloci.errors import ConfigError
from sheafloci.exactalg import QMatrix
from sheafloci.kronecker import kronecker_from_points, maximal_minors
from sheafloci.linsys import fibre
from sheafloci.localfree import (
    CurveGerm,
    FatIdealData,
    branch_restriction,
    random_membership_germ,
)
from sheafloci.poly import LocalPoly, parse_homogeneous, parse_local
from sheafloci.rng import SplitMix64
from sheafloci.schemes import FatPoint, SimplePoint, PointConfig, _draw_config, random_config
from sheafloci.singloci import SingularLocusReport, locus_report
from sheafloci.serialize import (
    RATIONAL_PATTERN,
    SCHEMAS,
    canonical_dumps,
    config_from_dict,
    config_to_dict,
    genericity_error_to_dict,
    germ_query_from_dict,
    localfree_result_to_dict,
    report_to_dict,
    resolution_to_dict,
    validate_payload,
)


def reference_config() -> PointConfig:
    return PointConfig.of(6, [SimplePoint.of(*p) for p in REFERENCE_POINTS_D6])


class TestConfigPayload:
    def test_round_trip_simple(self):
        cfg = reference_config()
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_round_trip_double_stratum(self):
        cfg = random_config(5, seed=7, stratum="double")
        d = config_to_dict(cfg)
        assert len(d["fat"]) == 1
        assert d["fat"][0]["mult"] == 2
        assert config_from_dict(d) == cfg

    def test_fat_h_starts_at_linear_term(self):
        # the file format drops the constant coefficient, which is always 0
        cfg = random_config(5, seed=7, stratum="double")
        fp = cfg.fat[0]
        d = config_to_dict(cfg)
        emitted = d["fat"][0]["h"]
        assert len(emitted) == len(fp.h) - 1 if fp.h else emitted == []
        rebuilt = config_from_dict(d)
        assert rebuilt.fat[0].h == fp.h

    def test_rationals_survive(self):
        cfg = PointConfig.of(
            4, [SimplePoint.of("1/3", "-2/7", 1), SimplePoint.of(0, 1, "5/2"),
                SimplePoint.of(1, 0, 0)]
        )
        again = config_from_dict(config_to_dict(cfg))
        assert again.simple[0].coords == cfg.simple[0].coords

    def test_rejects_zero_denominator(self):
        d = config_to_dict(reference_config())
        d["simple"][0][0] = "1/0"
        with pytest.raises(ConfigError, match="config"):
            config_from_dict(d)

    def test_rejects_missing_and_extra_fields(self):
        d = config_to_dict(reference_config())
        del d["fat"]
        with pytest.raises(ConfigError):
            config_from_dict(d)
        d = config_to_dict(reference_config())
        d["comment"] = "hello"
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_rejects_low_multiplicity(self):
        cfg = random_config(5, seed=7, stratum="double")
        d = config_to_dict(cfg)
        d["fat"][0]["mult"] = 1
        with pytest.raises(ConfigError, match="mult"):
            config_from_dict(d)

    @pytest.mark.parametrize(
        "payload",
        [
            DEEP_D6,
            # chart rows (1/2, 0, 0), (-3/2, 1/2, 0), (-2/3, 0, 1/3) move (1:3:2) to (1:0:0)
            dict(
                DEEP_D6,
                fat=[
                    dict(
                        DEEP_D6["fat"][0],
                        chart=[["1/2", "0", "0"], ["-3/2", "1/2", "0"], ["-2/3", "0", "1/3"]],
                    )
                ],
            ),
        ]
        + [config_to_dict(random_config(d, d, "double")) for d in (4, 6, 8)]
        + [config_to_dict(_draw_config(d, d, (3,))) for d in (5, 7)],
        ids=["deep-d6", "rational-chart", "double-4", "double-6", "double-8", "fat3-5", "fat3-7"],
    )
    def test_a_read_then_write_gives_the_same_bytes(self, payload):
        # a read inverts each chart into a frame, and a write inverts it back
        again = config_to_dict(config_from_dict(payload))
        assert canonical_dumps(again) == canonical_dumps(payload)

    def test_semantic_validation_still_applies(self):
        # schema-valid payloads still go through configuration checks
        d = config_to_dict(reference_config())
        d["simple"] = d["simple"][:9]
        with pytest.raises(ConfigError, match="10"):
            config_from_dict(d)


class TestCanonicalDumps:
    def test_sorted_and_terminated(self):
        text = canonical_dumps({"b": 1, "a": 2})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_insertion_order_invariance(self):
        cfg = random_config(4, seed=3)
        d = config_to_dict(cfg)
        shuffled = {k: d[k] for k in reversed(list(d))}
        assert canonical_dumps(shuffled) == canonical_dumps(d)

    def test_round_trips_through_json(self):
        d = config_to_dict(reference_config())
        assert json.loads(canonical_dumps(d)) == d


class TestResolutionPayload:
    def test_shapes_and_checks(self):
        cfg = random_config(4, seed=11)
        res = kronecker_from_points(cfg)
        d = resolution_to_dict(res)
        assert d["degree"] == 4
        assert len(d["phi"]) == 3 and all(len(row) == 2 for row in d["phi"])
        assert len(d["generators"]) == 3
        assert d["injective"] is True
        assert d["stable"] is True

    def test_minors_match_text(self):
        cfg = random_config(4, seed=11)
        res = kronecker_from_points(cfg)
        d = resolution_to_dict(res)
        minors = maximal_minors(res.phi)
        parsed = [parse_homogeneous(t) for t in d["minors"]]
        assert parsed == list(minors)

    def test_minors_are_computed_once(self, monkeypatch):
        import sheafloci.kronecker as kronecker

        res = kronecker_from_points(random_config(5, seed=2))
        expected = resolution_to_dict(res)
        calls = []

        def counting(phi):
            calls.append(phi)
            return maximal_minors(phi)

        # resolution_to_dict looks maximal_minors up in kronecker when it runs
        monkeypatch.setattr(kronecker, "maximal_minors", counting)
        assert resolution_to_dict(res) == expected
        assert len(calls) == 1

    def test_generators_parse_at_right_degree(self):
        cfg = random_config(5, seed=2)
        d = resolution_to_dict(kronecker_from_points(cfg))
        for text in d["generators"]:
            assert parse_homogeneous(text).degree == 3


class TestReportAndSubspace:
    def test_report_payload(self):
        fib = fibre(random_config(4, seed=5))
        rep = locus_report(fib, pairs=True, triples=True)
        d = report_to_dict(rep)
        assert d["fibre_dim"] == 11
        assert [p["codim"] for p in d["points"]] == [2, 2, 2]
        assert len(d["pairs"]) == 3 and len(d["triples"]) == 1
        assert d["violations"] == []
        json.loads(canonical_dumps(d))


class TestLocalFreePayloads:
    def test_query_round_trip(self):
        germ, data = germ_query_from_dict({"f": "x^2 - y^3", "h": ["0", "1"], "mult": 2})
        assert germ.f == parse_local("x^2 - y^3")
        assert data.h == (0, 1)
        assert data.mult == 2

    def test_query_requires_zero_constant(self):
        with pytest.raises(ConfigError, match="h"):
            germ_query_from_dict({"f": "x*y", "h": ["1"], "mult": 2})

    def test_result_for_node(self):
        germ = CurveGerm(parse_local("x*y"))
        data = FatIdealData.of([0], 2)
        d = localfree_result_to_dict(germ, data)
        assert d["membership"] is True
        assert d["regular"] is False
        assert d["u_at_zero"] == "0"
        assert d["free"] is False
        assert d["jet_free"] is False

    def test_result_for_transverse_branch(self):
        germ = CurveGerm(parse_local("x^2 - y^2"))
        data = FatIdealData.of([0], 2)
        d = localfree_result_to_dict(germ, data)
        assert d["u_at_zero"] == "1"
        assert d["free"] is True and d["jet_free"] is True

    def test_result_without_membership(self):
        germ = CurveGerm(parse_local("y - x^2"))
        data = FatIdealData.of([0], 2)
        d = localfree_result_to_dict(germ, data)
        assert d["membership"] is False
        assert d["u_at_zero"] is None
        assert d["free"] is None and d["jet_free"] is None

    @pytest.mark.parametrize(
        "f,expected",
        [
            ("x^2 - y^3", {"free": False, "jet_free": False, "regular": False, "u_at_zero": "0"}),
            ("x - y^2", {"free": True, "jet_free": True, "regular": True, "u_at_zero": "1"}),
        ],
        ids=["singular", "regular"],
    )
    def test_branch_is_expanded_at_most_four_times(self, monkeypatch, f, expected):
        # four readers of f(h(y), y) (membership, u(0), the criterion and the
        # oracle's membership gate) share a single expansion
        calls = []
        expand = LocalPoly.substitute_x

        def counting(poly, h):
            calls.append(poly)
            return expand(poly, h)

        monkeypatch.setattr(LocalPoly, "substitute_x", counting)
        branch_restriction.cache_clear()
        d = localfree_result_to_dict(CurveGerm(parse_local(f)), FatIdealData.of([0], 2))
        assert d == {"f": f, "h": ["0"], "mult": 2, "membership": True, **expected}
        assert len(calls) == 1

    def test_result_text_round_trips(self):
        germ = CurveGerm(parse_local("x^2 - y^3 + 2*x*y^2"))
        d = localfree_result_to_dict(germ, FatIdealData.of([0, 1], 2))
        assert parse_local(d["f"]) == germ.f


class TestGenericityErrorPayload:
    def test_with_certificate(self):
        cert = parse_homogeneous("x0^2 - x1*x2")
        d = genericity_error_to_dict("points lie on a conic", cert)
        assert d["error"] == "genericity"
        assert parse_homogeneous(d["certificate"]).degree == 2

    def test_without_certificate(self):
        d = genericity_error_to_dict("no certificate available", None)
        assert d["certificate"] is None


class TestValidatePayload:
    def test_unknown_entries_rejected_everywhere(self):
        with pytest.raises(ConfigError, match="report"):
            validate_payload({"degree": 4}, "report")

    def test_error_names_offending_path(self):
        d = config_to_dict(reference_config())
        d["simple"][3][1] = "half"
        with pytest.raises(ConfigError, match="simple/3/1"):
            config_from_dict(d)

    @pytest.mark.parametrize(
        "kind,payload,expected",
        [
            ("config", {"degree": 6, "simple": [["1", "half", "0"]], "fat": []},
             f"at simple/0/1: 'half' does not match {RATIONAL_PATTERN!r}"),
            ("localfree_query", {"f": "x*y", "h": ["0"]},
             "at (root): 'mult' is a required property"),
            ("config", {"degree": 11, "simple": [], "fat": []},
             "at degree: 11 is greater than the maximum of 10"),
            ("localfree_query", {"f": "x*y", "h": ["0"], "mult": 0},
             "at mult: 0 is less than the minimum of 1"),
            ("config", {"degree": 6, "simple": [["1", "0"]], "fat": []},
             "at simple/0: ['1', '0'] is too short"),
            ("config", {"degree": 6, "simple": [], "fat": [], "b": 1, "a": 2},
             "at (root): Additional properties are not allowed ('a', 'b' were unexpected)"),
            ("report", {"degree": 4, "stratum": "flat", "fibre_dim": 0, "points": [],
                        "pairs": [], "triples": [], "subsets": [], "violations": []},
             "at stratum: 'flat' is not one of ['generic', 'double', 'deep']"),
            ("localfree_result", {"f": "x", "h": ["0"], "mult": 1, "membership": False,
                                  "regular": True, "u_at_zero": 0, "free": None,
                                  "jet_free": None},
             "at u_at_zero: 0 is not of type 'string', 'null'"),
            # JSON Schema's "integer" admits 2.0; the checker, like the code
            # that reads the payload, takes only int, and never bool
            ("localfree_query", {"f": "x*y", "h": ["0"], "mult": 2.0},
             "at mult: 2.0 is not of type 'integer'"),
            ("localfree_query", {"f": "x*y", "h": ["0"], "mult": True},
             "at mult: True is not of type 'integer'"),
        ],
        ids=["pattern", "required", "maximum", "minimum", "minItems",
             "additionalProperties", "enum", "type-list", "integral-float", "bool"],
    )
    def test_messages_use_json_schema_wording(self, kind, payload, expected):
        with pytest.raises(ConfigError) as info:
            validate_payload(payload, kind)
        assert str(info.value) == f"invalid {kind} payload {expected}"



# The JSON Schema keywords and type names the checker interprets.
CHECKED_KEYWORDS = {
    "type", "enum", "pattern", "minimum", "maximum", "minItems", "maxItems",
    "items", "required", "properties", "additionalProperties",
}
CHECKED_TYPES = {"object", "array", "string", "integer", "boolean", "null"}


def subschemas(schema: dict):
    yield schema
    if "items" in schema:
        yield from subschemas(schema["items"])
    for sub in schema.get("properties", {}).values():
        yield from subschemas(sub)


def test_schemas_are_valid_and_use_only_checked_keywords():
    """A keyword the checker does not know must fail here, not be ignored."""
    for kind, schema in SCHEMAS.items():
        jsonschema.validators.validator_for(schema).check_schema(schema)
        for sub in subschemas(schema):
            assert set(sub) <= CHECKED_KEYWORDS, (kind, set(sub) - CHECKED_KEYWORDS)
            types = sub.get("type", [])
            assert set([types] if isinstance(types, str) else types) <= CHECKED_TYPES, kind
            assert sub.get("additionalProperties", False) is False, kind
            # the checker compares enum members with ==, under which True == 1
            assert all(isinstance(v, str) for v in sub.get("enum", [])), kind


MUTANT_VALUES = [
    "0", "-7", "+3/4", "1/0", "1/02", "half", "", "3\n", "x^2 - y^3", "generic",
    0, 1, 2, 3, 4, 6, 10, 11, -1, 2.5, 2.0, 6.0, 0.0, float("nan"),
    True, False, None, [], {}, ["0"], ["1", "2", "3"], {"a": 1},
]
MUTANT_KEYS = ["extra", "degree", "simple", "fat", "mult", "h", "chart", "f"]


def containers(obj):
    """obj and every list or dict inside it."""
    if isinstance(obj, (list, dict)):
        yield obj
        for value in obj.values() if isinstance(obj, dict) else obj:
            yield from containers(value)


def pick(rng: SplitMix64, seq):
    return seq[rng.below(len(seq))]


def mutate(obj, rng: SplitMix64):
    """Replace an entry, delete a key, add a key, append an item, or,
    when the drawn edit has no place to go, replace the whole payload.

    Half of the replacements take a value of the old one's type from the
    payload itself, or the old integer as a float, so that many mutants
    stay valid and some differ from a valid payload only by 2.0 for 2.
    """
    nodes = [node for node in containers(obj) if node]
    dicts = [node for node in containers(obj) if isinstance(node, dict)]
    lists = [node for node in containers(obj) if isinstance(node, list)]
    own = [v for node in nodes for v in (node.values() if isinstance(node, dict) else node)]
    value = copy.deepcopy(pick(rng, MUTANT_VALUES))
    op = rng.below(5)
    if op == 0 and nodes:
        node = pick(rng, nodes)
        key = pick(rng, list(node) if isinstance(node, dict) else range(len(node)))
        old = node[key]
        alike = [v for v in own if type(v) is type(old)]
        if type(old) is int:
            alike.append(float(old))
        node[key] = copy.deepcopy(pick(rng, alike)) if rng.below(2) else value
    elif op == 1 and any(dicts):
        node = pick(rng, [node for node in dicts if node])
        del node[pick(rng, list(node))]
    elif op == 2 and dicts:
        pick(rng, dicts)[pick(rng, MUTANT_KEYS)] = value
    elif op == 3 and lists:
        node = pick(rng, lists)
        node.append(copy.deepcopy(pick(rng, node)) if node and rng.below(2) else value)
    else:
        return copy.deepcopy(pick(rng, MUTANT_VALUES + [[obj]]))
    return obj


def reported(kind: str, payload) -> "tuple | None":
    """(path, message) of validate_payload's error, or None if it accepts."""
    try:
        validate_payload(payload, kind)
    except ConfigError as e:
        m = re.fullmatch(rf"invalid {kind} payload at (\S+): (.*)", str(e))
        assert m, str(e)
        return m.group(1), m.group(2)
    return None


def value_at(payload, path: str):
    for key in path.split("/") if path != "(root)" else ():
        payload = payload[int(key)] if isinstance(payload, list) else payload[key]
    return payload


def test_checker_agrees_with_jsonschema_on_mutated_payloads():
    """Same verdict as jsonschema, and an error jsonschema also reports.

    The one documented difference: an integral float such as 2.0 is a
    JSON Schema integer, but not an integer to the checker.
    """
    bases = [("config", config_to_dict(random_config(d, seed=40 + d, stratum=s)))
             for d in (4, 5) for s in ("generic", "double")]
    bases += [
        ("localfree_query", {"f": "x^2 - y^3", "h": ["0", "1/2"], "mult": 2}),
        ("localfree_query", {"f": "x*y", "h": [], "mult": 1}),
    ]
    validators = {
        kind: jsonschema.validators.validator_for(SCHEMAS[kind])(SCHEMAS[kind])
        for kind in ("config", "localfree_query")
    }
    rng = SplitMix64(2020_12)
    outcomes = {"accepted": 0, "rejected": 0, "stricter": 0}
    for case in range(1000):
        kind, base = bases[case % len(bases)]
        payload = copy.deepcopy(base)
        for _ in range(1 + rng.below(2)):
            payload = mutate(payload, rng)
        expected = {
            ("/".join(map(str, e.absolute_path)) or "(root)", e.message)
            for e in validators[kind].iter_errors(payload)
        }
        got = reported(kind, payload)
        if got is None:
            assert not expected, (case, payload, expected)
            outcomes["accepted"] += 1
        elif got in expected:
            outcomes["rejected"] += 1
        else:
            path, message = got
            value = value_at(payload, path)
            assert type(value) is float and value.is_integer(), (case, payload, got, expected)
            assert message == f"{value!r} is not of type 'integer'"
            outcomes["stricter"] += 1
    assert min(outcomes.values()) >= 5, outcomes


@cache
def output_payloads() -> tuple:
    """(kind, payload) from every output builder on seeded inputs."""
    payloads = []
    for d in range(4, 9):
        generic = random_config(d, seed=900 + d)
        double = random_config(d, seed=900 + d, stratum="double")
        payloads += [("config", config_to_dict(generic)), ("config", config_to_dict(double))]
        for cfg, triples in ((generic, True), (double, False)):
            n = cfg.npoints
            subsets = [tuple(range(1, min(n, 4) + 1)), tuple(range(1, n + 1))]
            rep = locus_report(fibre(cfg), pairs=True, triples=triples, extra_subsets=subsets)
            payloads.append(("report", report_to_dict(rep)))
        if d <= 6:
            payloads.append(("resolution", resolution_to_dict(kronecker_from_points(generic))))
    # seven simple points and one triple point, length 10 in degree 6; the
    # frame's inverse is the chart [[1, 0, 0], [-3, 1, 0], [-2, 0, 1]]
    triple = FatPoint.of(
        SimplePoint.of(1, 3, 2), QMatrix.from_rows([[1, 0, 0], [3, 1, 0], [2, 0, 1]]), (0, 1, 1), 3
    )
    deep = PointConfig.of(6, [SimplePoint.of(*p) for p in REFERENCE_POINTS_D6[:7]], [triple])
    payloads += [
        ("config", config_to_dict(deep)),
        ("report", report_to_dict(locus_report(fibre(deep), pairs=True))),
    ]
    # a report with a violation of every kind
    violating = SingularLocusReport(
        degree=5,
        stratum="generic",
        fibre_dim=14,
        point_codims=((1, "simple", 2), (2, "simple", 1)),
        pair_codims=((1, 2, 3),),
        triple_codims=((1, 2, 3, 5, False), (1, 2, 4, 5, True)),
        subset_codims=(((1, 2, 3, 4), 7),),
    )
    assert len(report_to_dict(violating)["violations"]) == 3
    payloads.append(("report", report_to_dict(violating)))
    for mult in (1, 2, 3):
        germ, data = random_membership_germ(SplitMix64(910 + mult), mult)
        payloads.append(("localfree_result", localfree_result_to_dict(germ, data)))
    outside = localfree_result_to_dict(CurveGerm(parse_local("y - x^2")), FatIdealData.of([0], 2))
    assert outside["free"] is None
    payloads.append(("localfree_result", outside))
    payloads += [
        ("genericity_error", genericity_error_to_dict("on a conic", parse_homogeneous("x0*x1"))),
        ("genericity_error", genericity_error_to_dict("no certificate", None)),
    ]
    return tuple(payloads)


def test_every_output_payload_conforms_to_its_schema():
    """The builders are not checked at run time; this is their contract."""
    payloads = output_payloads()
    kinds = {kind for kind, _ in payloads}
    assert kinds == set(SCHEMAS) - {"localfree_query"}
    for kind, payload in payloads:
        validate_payload(payload, kind)
        jsonschema.validate(payload, SCHEMAS[kind])


# ---------------------------------------------------------------------------
# canonical_dumps against json.dumps(obj, sort_keys=True, indent=2)


def json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_canonical_dumps_matches_json_on_every_output_payload():
    for kind, payload in output_payloads():
        assert canonical_dumps(payload) == json_dumps(payload), kind


# quotes, backslashes, brackets, control, non-ASCII and surrogate characters
_AWKWARD = ['"', "\\", "[", "]", "{", "}", ":", ",", "\x00", "\n", "\t", "\x1f", "\x7f",
            "é", "\u2028", "\ud800", "\U0001f600"]
_TEXT = st.text(st.characters() | st.sampled_from(_AWKWARD), max_size=6)
_LEAVES = st.none() | st.booleans() | st.integers() | _TEXT
_INT_LISTS = st.lists(st.integers(), min_size=1, max_size=3)


def _records(inner):
    """Lists of dicts that share one key set, each key's values drawn
    from one column strategy: int, bool, str or int-list columns, which
    canonical_dumps renders by column, and columns that it must not:
    int mixed with bool, int lists that may be empty, int tuples, and
    any JSON value, nested dicts included."""
    column = st.sampled_from(
        [
            st.integers(),
            st.booleans(),
            _TEXT,
            _INT_LISTS,
            st.integers() | st.booleans(),
            st.lists(st.integers(), max_size=2),
            _INT_LISTS.map(tuple),
            inner,
        ]
    )
    return st.dictionaries(_TEXT, column, min_size=1, max_size=3).flatmap(
        lambda kinds: st.lists(st.fixed_dictionaries(kinds), min_size=1, max_size=4)
    )


JSON_VALUES = st.recursive(
    _LEAVES | st.lists(st.integers(), max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4)
    | _records(inner),
    max_leaves=24,
)


@st.composite
def report_payloads(draw):
    """report_to_dict of drawn codims: collinear triples, no pairs or no
    triples, and every kind of violation are common."""
    ids = st.integers(1, 9)

    def lists(entry):
        return st.lists(entry, max_size=3).map(tuple)

    report = SingularLocusReport(
        degree=draw(st.integers(4, 10)),
        stratum=draw(st.sampled_from(["generic", "double", "deep"])),
        fibre_dim=draw(st.integers(11, 29)),
        point_codims=draw(
            lists(st.tuples(ids, st.sampled_from(["simple", "fat"]), st.sampled_from([2, 1, 3])))
        ),
        pair_codims=draw(lists(st.tuples(ids, ids, st.sampled_from([4, 3])))),
        triple_codims=draw(
            lists(st.tuples(ids, ids, ids, st.sampled_from([6, 5]), st.booleans()))
        ),
        subset_codims=draw(lists(st.tuples(_INT_LISTS.map(tuple), st.integers(0, 9)))),
    )
    return report_to_dict(report)


@given(JSON_VALUES | report_payloads())
@settings(max_examples=300, deadline=None)
def test_canonical_dumps_matches_json_on_json_values(obj):
    assert canonical_dumps(obj) == json_dumps(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[], {}, [[]]], "d": ({},)},
        [1, True, 2],
        [False, 0, None],
        [-1, 0, -(10**20)],
        (1, 2, 3),
        "",
        None,
        True,
        -7,
        {"z": 1, "a": 2, "M": 3, "é": 4, "": 5},
        # lists of dicts: uniform, then with keys or entries that differ
        [{"ids": [1, 2], "ok": True, "n": "a"}, {"ids": [3], "ok": False, "n": ""}],
        [{"a": 1}, {"a": 2, "b": 3}],
        [{"a": 1, "b": 2}, {"b": 3, "c": 4}],
        [{"a": 1}, [1]],
        [{}, {}],
        # record lists: keys that hold % or need escaping, a bool column
        # next to an int column, then columns the template must not take
        [{"%": 1, "%s": "x%d", "%%d": [1, 2], "é": True}, {"%": 2, "%s": "", "%%d": [3, 4], "é": False}],
        [{"flag": True, "n": 1}, {"flag": False, "n": -2}],
        [{"n": 1}, {"n": True}],
        [{"ids": [1, 2], "codim": 4}, {"ids": [1, 2, 3], "codim": 6}],
        [{"ids": [], "codim": 0}, {"ids": [], "codim": 1}],
        [{"ids": (1, 2), "codim": 4}, {"ids": (3, 4), "codim": 4}],
    ],
    ids=repr,
)
def test_canonical_dumps_matches_json_on_edge_values(obj):
    assert canonical_dumps(obj) == json_dumps(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {1: "a", 2: "b"},
        {None: 1},
        {True: 1, False: 2},
        {1.5: [1, 2]},
        [{"a": {3: [4]}}],
        {"a": 1.5, "b": [float("inf"), -0.0]},
        [float("nan")],
        IntEnum("E", "A B")(2),
        {"a": OrderedDict(b=1)},
    ],
    ids=repr,
)
def test_canonical_dumps_leaves_other_types_to_json(obj):
    assert canonical_dumps(obj) == json_dumps(obj)


def test_canonical_dumps_raises_what_json_raises():
    limit = sys.get_int_max_str_digits()
    at_limit = 10 ** (limit - 1)
    for obj in (at_limit, [at_limit, -at_limit], {"a": [1, at_limit]}, [{"a": at_limit}]):
        assert canonical_dumps(obj) == json_dumps(obj)
    # console_main exits 1 on this ValueError's "integer string conversion",
    # also for an int in a record column or in a column's int lists
    records = ([{"a": 1}, {"a": 10**limit}], [{"ids": [1, 2]}, {"ids": [3, -(10**limit)]}])
    for obj in (10**limit, [1, 10**limit], {"a": {"b": -(10**limit)}}, *records):
        with pytest.raises(ValueError) as theirs:
            json_dumps(obj)
        with pytest.raises(ValueError) as ours:
            canonical_dumps(obj)
        assert str(ours.value) == str(theirs.value)
        assert "integer string conversion" in str(ours.value)
    cycle = []
    cycle.append(cycle)
    for obj in ({"a": Fraction(1, 2)}, [{1, 2}], {1: "a", "b": 2}, cycle):
        with pytest.raises(Exception) as theirs:
            json_dumps(obj)
        with pytest.raises(theirs.type, match=re.escape(str(theirs.value))):
            canonical_dumps(obj)


def test_canonical_dumps_does_not_run_the_pure_python_encoder(monkeypatch):
    payloads = [
        report_to_dict(locus_report(fibre(random_config(7, seed=3)), pairs=True, triples=True)),
        config_to_dict(random_config(6, seed=4, stratum="double")),
    ]
    expected = [json_dumps(p) for p in payloads]

    def unused(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", unused)
    with pytest.raises(AssertionError):
        json_dumps(payloads[1])
    assert [canonical_dumps(p) for p in payloads] == expected
