"""JSON formats for configurations, resolutions, reports, and germ queries.

All rational numbers travel as strings like "3/4" or "-7"; polynomials
travel in the canonical text form produced by their str() and accepted
by the parser.  SCHEMAS is the contract for every payload, written in
JSON Schema (draft 2020-12); _schema_errors interprets the keywords it
uses with the standard library alone.  Input is validated where it
enters, in config_from_dict and germ_query_from_dict, which also enforce
the input ceilings; the payloads the builders emit are checked against
their schemas by a test, not at run time.  canonical_dumps renders
objects deterministically (sorted keys, two-space indent, trailing
newline): the bytes of json.dumps(obj, sort_keys=True, indent=2),
written without the pure-Python encoder that indent makes json use.  A
list of dicts with one key set and one value type per key, such as a
report's pairs and triples, is rendered a key at a time, not a dict at
a time.

The payload functions import kronecker, localfree and singloci when they
run, not with this module, so a command that writes only configurations
never loads them (see cli).  Their argument types are named in docstrings,
since an annotation must resolve in this module's namespace.

Convention note: in configuration files the fat-point entry "h" lists
the coefficients of h(y) from y^1 upward, since h(0) = 0 always; in the
local-freeness query format "h" starts at y^0 and its first entry must
be "0".
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain, repeat
from operator import itemgetter
from typing import Optional

from .errors import ConfigError
from .exactalg import QMatrix
from .poly import parse_local
from .schemes import MAX_DEGREE, FatPoint, PointConfig, SimplePoint

RATIONAL_PATTERN = r"^[+-]?\d+(/[1-9]\d*)?$"

# ceilings on a local freeness query, checked before any computation;
# README ("Input ceilings") gives the measurement behind them
MAX_MULT = 11
MAX_GERM_DEGREE = 25
# the largest default truncation 2m + deg f + 2 within the other two
MAX_TRUNCATION = 2 * MAX_MULT + MAX_GERM_DEGREE + 2

_RATIONAL = {"type": "string", "pattern": RATIONAL_PATTERN}
_TRIPLE = {"type": "array", "items": _RATIONAL, "minItems": 3, "maxItems": 3}
_MATRIX3 = {"type": "array", "items": _TRIPLE, "minItems": 3, "maxItems": 3}
_IDS = {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1}

SCHEMAS = {
    "config": {
        "type": "object",
        "required": ["degree", "simple", "fat"],
        "additionalProperties": False,
        "properties": {
            "degree": {"type": "integer", "minimum": 4, "maximum": MAX_DEGREE},
            "simple": {"type": "array", "items": _TRIPLE},
            "fat": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["support", "chart", "h", "mult"],
                    "additionalProperties": False,
                    "properties": {
                        "support": _TRIPLE,
                        "chart": _MATRIX3,
                        "h": {"type": "array", "items": _RATIONAL},
                        "mult": {"type": "integer", "minimum": 2},
                    },
                },
            },
        },
    },
    "resolution": {
        "type": "object",
        "required": ["degree", "phi", "generators", "minors", "injective", "stable"],
        "additionalProperties": False,
        "properties": {
            "degree": {"type": "integer", "minimum": 4},
            "phi": {"type": "array", "items": {"type": "array", "items": _TRIPLE}},
            "generators": {"type": "array", "items": {"type": "string"}},
            "minors": {"type": "array", "items": {"type": "string"}},
            "injective": {"type": "boolean"},
            "stable": {"type": "boolean"},
        },
    },
    "report": {
        "type": "object",
        "required": [
            "degree",
            "stratum",
            "fibre_dim",
            "points",
            "pairs",
            "triples",
            "subsets",
            "violations",
        ],
        "additionalProperties": False,
        "properties": {
            "degree": {"type": "integer", "minimum": 4},
            "stratum": {"enum": ["generic", "double", "deep"]},
            "fibre_dim": {"type": "integer", "minimum": 0},
            "points": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["id", "kind", "codim"],
                    "additionalProperties": False,
                    "properties": {
                        "id": {"type": "integer", "minimum": 1},
                        "kind": {"enum": ["simple", "fat"]},
                        "codim": {"type": "integer", "minimum": 0},
                    },
                },
            },
            "pairs": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["ids", "codim"],
                    "additionalProperties": False,
                    "properties": {
                        "ids": _IDS,
                        "codim": {"type": "integer", "minimum": 0},
                    },
                },
            },
            "triples": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["ids", "codim", "collinear"],
                    "additionalProperties": False,
                    "properties": {
                        "ids": _IDS,
                        "codim": {"type": "integer", "minimum": 0},
                        "collinear": {"type": "boolean"},
                    },
                },
            },
            "subsets": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["ids", "codim"],
                    "additionalProperties": False,
                    "properties": {
                        "ids": _IDS,
                        "codim": {"type": "integer", "minimum": 0},
                    },
                },
            },
            "violations": {"type": "array", "items": {"type": "string"}},
        },
    },
    "localfree_query": {
        "type": "object",
        "required": ["f", "h", "mult"],
        "additionalProperties": False,
        "properties": {
            "f": {"type": "string"},
            "h": {"type": "array", "items": _RATIONAL},
            "mult": {"type": "integer", "minimum": 1},
            "truncation": {"type": "integer", "minimum": 2},
        },
    },
    "localfree_result": {
        "type": "object",
        "required": ["f", "h", "mult", "membership", "regular", "u_at_zero", "free", "jet_free"],
        "additionalProperties": False,
        "properties": {
            "f": {"type": "string"},
            "h": {"type": "array", "items": _RATIONAL},
            "mult": {"type": "integer", "minimum": 1},
            "membership": {"type": "boolean"},
            "regular": {"type": "boolean"},
            "u_at_zero": {"type": ["string", "null"], "pattern": RATIONAL_PATTERN},
            "free": {"type": ["boolean", "null"]},
            "jet_free": {"type": ["boolean", "null"]},
        },
    },
    "genericity_error": {
        "type": "object",
        "required": ["error", "message", "certificate"],
        "additionalProperties": False,
        "properties": {
            "error": {"enum": ["genericity"]},
            "message": {"type": "string"},
            "certificate": {"type": ["string", "null"]},
        },
    },
}


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    # bool is an int subclass, and an integral float is not an integer here
    "integer": lambda x: type(x) is int,
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
}


def _schema_errors(obj, schema: dict, path: tuple = ()):
    """Yield (path, message) for each way obj breaks schema, this node first.

    Interprets exactly the keywords SCHEMAS uses, each applied as JSON
    Schema applies it (pattern only to strings, minimum only to numbers,
    ...), with the usual JSON Schema validator messages.  A value of the
    wrong type yields only its type error.
    """
    if "type" in schema:
        names = [schema["type"]] if isinstance(schema["type"], str) else schema["type"]
        if not any(_TYPES[name](obj) for name in names):
            yield path, f"{obj!r} is not of type {', '.join(map(repr, names))}"
            return
    if "enum" in schema and obj not in schema["enum"]:
        yield path, f"{obj!r} is not one of {schema['enum']!r}"
    if isinstance(obj, str) and "pattern" in schema and not re.search(schema["pattern"], obj):
        yield path, f"{obj!r} does not match {schema['pattern']!r}"
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        if "minimum" in schema and obj < schema["minimum"]:
            yield path, f"{obj!r} is less than the minimum of {schema['minimum']!r}"
        if "maximum" in schema and obj > schema["maximum"]:
            yield path, f"{obj!r} is greater than the maximum of {schema['maximum']!r}"
    if isinstance(obj, list):
        if "minItems" in schema and len(obj) < schema["minItems"]:
            short = "should be non-empty" if schema["minItems"] == 1 else "is too short"
            yield path, f"{obj!r} {short}"
        if "maxItems" in schema and len(obj) > schema["maxItems"]:
            long = "is expected to be empty" if schema["maxItems"] == 0 else "is too long"
            yield path, f"{obj!r} {long}"
        if "items" in schema:
            for i, item in enumerate(obj):
                yield from _schema_errors(item, schema["items"], path + (i,))
    if isinstance(obj, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in obj:
                yield path, f"{key!r} is a required property"
        extras = sorted(key for key in obj if key not in properties)
        if schema.get("additionalProperties") is False and extras:
            verb = "was" if len(extras) == 1 else "were"
            listed = ", ".join(map(repr, extras))
            yield path, f"Additional properties are not allowed ({listed} {verb} unexpected)"
        for key, sub in properties.items():
            if key in obj:
                yield from _schema_errors(obj[key], sub, path + (key,))


def validate_payload(obj: dict, kind: str) -> None:
    """Check a payload against the named schema; ConfigError on mismatch.

    Reports the first error _schema_errors finds, so an error in a
    value comes before any error inside it.
    """
    for path, message in _schema_errors(obj, SCHEMAS[kind]):
        where = "/".join(map(str, path)) or "(root)"
        raise ConfigError(f"invalid {kind} payload at {where}: {message}")


class _Unwritable(Exception):
    """A value or key type that canonical_dumps leaves to json.dumps."""


_quote = json.encoder.encode_basestring_ascii


def _write(obj, pad: str, out: list) -> None:
    """Append json.dumps(obj, sort_keys=True, indent=2)'s text at depth pad."""
    t = type(obj)
    if t is str:
        out.append(_quote(obj))
    elif t is int:
        out.append(int.__repr__(obj))
    elif t is dict:
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        lead = "{\n" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise _Unwritable
            out += (lead, _quote(key), ": ")
            _write(obj[key], inner, out)
            lead = sep
        out.append("\n" + pad + "}")
    elif t is list or t is tuple:
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        if all(type(v) is int for v in obj):
            out.append(f"[\n{inner}{sep.join(map(int.__repr__, obj))}\n{pad}]")
            return
        entries = _records(obj, inner) if type(obj[0]) is dict else None
        if entries is not None:
            out.append(f"[\n{inner}{sep.join(entries)}\n{pad}]")
            return
        lead = "[\n" + inner
        for v in obj:
            out.append(lead)
            _write(v, inner, out)
            lead = sep
        out.append("\n" + pad + "]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    else:
        raise _Unwritable


def _column(values: list, pad: str) -> Optional[list]:
    """The values' texts at depth pad, or None unless all are int, all
    bool, all str or all non-empty lists of ints."""
    kinds = set(map(type, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {bool}:
        return ["true" if v else "false" for v in values]
    if kinds == {str}:
        return list(map(_quote, values))
    if kinds == {list} and all(values) and {*map(type, chain.from_iterable(values))} == {int}:
        # repr gives "[[1, 2], [3]]"; each ", " becomes a line break, and
        # the lists part where "], [" was
        inner = pad + "  "
        sep = ",\n" + inner
        texts = repr(values)[2:-2].replace(", ", sep).split("]" + sep + "[")
        return list(map(f"[\n{inner}{{}}\n{pad}]".format, texts))
    return None


def _records(rows: list, pad: str) -> Optional[list]:
    """A list of dicts rendered by column at depth pad, or None.

    The dicts must share one key set of str keys, and each key's values
    must pass _column.  Each key's values are rendered in one pass, and
    each entry is one join of its values and the text between them.
    """
    keys = sorted(rows[0]) if all(type(k) is str for k in rows[0]) else None
    if not keys or set(map(type, rows)) != {dict} or set(map(len, rows)) != {len(keys)}:
        return None
    inner = pad + "  "
    lead = "{\n" + inner
    parts = []
    for key in keys:
        try:
            values = list(map(itemgetter(key), rows))
        except KeyError:
            return None
        col = _column(values, inner)
        if col is None:
            return None
        parts += (repeat(lead + _quote(key) + ": "), col)
        lead = ",\n" + inner
    return list(map("".join, zip(*parts, repeat("\n" + pad + "}"))))


def canonical_dumps(obj: dict) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) plus a newline, byte for byte.

    With indent, json runs its pure-Python encoder; _write renders the
    JSON types the payloads hold (str keys, str, int, bool, None, list,
    tuple, dict) with json's own C string quoting, and a list of dicts
    that share their keys and value types by column (_records).  Any
    other type goes to json.dumps itself, which renders or rejects it,
    and so does a cycle, which _write meets as a RecursionError.
    """
    out = []
    try:
        _write(obj, "", out)
    except (_Unwritable, RecursionError):
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Configurations


def _triple_out(coords) -> list:
    return [str(Fraction(c)) for c in coords]


def config_to_dict(cfg: PointConfig) -> dict:
    fat = []
    for fp in cfg.fat:
        fat.append(
            {
                "support": _triple_out(fp.support.coords),
                "chart": [_triple_out(fp.chart.row(i)) for i in range(3)],
                "h": [str(Fraction(c)) for c in fp.h[1:]],
                "mult": fp.mult,
            }
        )
    return {
        "degree": cfg.degree,
        "simple": [_triple_out(p.coords) for p in cfg.simple],
        "fat": fat,
    }


def _rational(text: str) -> Fraction:
    """Fraction(text) for input text that passed RATIONAL_PATTERN.

    The pattern admits any number of digits, but Python converts at most
    sys.get_int_max_str_digits() (4300 by default) into an int.
    """
    try:
        return Fraction(text)
    except ValueError:
        shown = text if len(text) <= 24 else text[:20] + "..."
        raise ConfigError(
            f"rational {shown!r} ({len(text)} characters) is too long to read"
        ) from None


def config_from_dict(d: dict) -> PointConfig:
    validate_payload(d, "config")
    simple = [
        SimplePoint(tuple(_rational(c) for c in t)) for t in d["simple"]
    ]
    fat = []
    for entry in d["fat"]:
        chart = QMatrix.from_rows(
            [[_rational(c) for c in row] for row in entry["chart"]]
        )
        support = SimplePoint(tuple(_rational(c) for c in entry["support"]))
        h = (Fraction(0),) + tuple(_rational(c) for c in entry["h"])
        fat.append(FatPoint.of(support, chart, h, entry["mult"]))
    return PointConfig.of(d["degree"], simple, fat)


# ---------------------------------------------------------------------------
# Resolutions


def resolution_to_dict(res) -> dict:
    """Payload of a kronecker.IdealResolution, with its minors and checks."""
    from .kronecker import injectivity_check, maximal_minors, stability_sufficient

    phi = res.phi
    rows = []
    for i in range(phi.nrows):
        rows.append(
            [_triple_out(phi.entry(i, j).coeffs) for j in range(phi.ncols)]
        )
    minors = maximal_minors(phi)
    return {
        "degree": res.degree,
        "phi": rows,
        "generators": [str(g) for g in res.generators],
        "minors": [str(m) for m in minors],
        "injective": injectivity_check(phi),
        "stable": stability_sufficient(minors),
    }


# ---------------------------------------------------------------------------
# Reports


def report_to_dict(report) -> dict:
    """Payload of a singloci.SingularLocusReport, with its violations."""
    from .singloci import asserted_violations

    return {
        "degree": report.degree,
        "stratum": report.stratum,
        "fibre_dim": report.fibre_dim,
        "points": [
            {"id": pid, "kind": kind, "codim": codim}
            for pid, kind, codim in report.point_codims
        ],
        "pairs": [
            {"ids": [i, j], "codim": codim}
            for i, j, codim in report.pair_codims
        ],
        "triples": [
            {"ids": [i, j, k], "codim": codim, "collinear": flag}
            for i, j, k, codim, flag in report.triple_codims
        ],
        "subsets": [
            {"ids": list(ids), "codim": codim}
            for ids, codim in report.subset_codims
        ],
        "violations": asserted_violations(report),
    }


# ---------------------------------------------------------------------------
# Local freeness queries


def _at_most(what: str, value: int, ceiling: int) -> None:
    if value > ceiling:
        raise ConfigError(f"{what} {value} is above the ceiling {ceiling}")


def germ_query_from_dict(d: dict):
    """(germ, ideal data, truncation or None) from a query payload.

    The multiplicity, the germ's degree and a given jet truncation are
    held to MAX_MULT, MAX_GERM_DEGREE and MAX_TRUNCATION; the default
    truncation then lies within MAX_TRUNCATION too.
    """
    from .localfree import CurveGerm, FatIdealData

    validate_payload(d, "localfree_query")
    h = [_rational(c) for c in d["h"]]
    if h and h[0] != 0:
        raise ConfigError('the first entry of "h" must be "0" in queries')
    germ = CurveGerm(parse_local(d["f"]))
    data = FatIdealData.of(h, d["mult"])
    truncation = d.get("truncation")
    _at_most("mult", data.mult, MAX_MULT)
    _at_most("germ degree", germ.f.total_degree(), MAX_GERM_DEGREE)
    if truncation is not None:
        _at_most("truncation", truncation, MAX_TRUNCATION)
    return germ, data, truncation


def localfree_result_to_dict(germ, data, truncation: Optional[int] = None) -> dict:
    """Run the freeness criterion and the jet oracle, as one payload.

    germ is a localfree.CurveGerm and data a localfree.FatIdealData.
    """
    from .localfree import (
        fat_ideal_free,
        is_regular,
        jet_principality_oracle,
        membership,
        u_at_zero,
    )

    member = membership(germ, data)
    return {
        "f": str(germ.f),
        "h": [str(Fraction(c)) for c in data.h] or ["0"],
        "mult": data.mult,
        "membership": member,
        "regular": is_regular(germ),
        "u_at_zero": str(Fraction(u_at_zero(germ, data))) if member else None,
        "free": fat_ideal_free(germ, data) if member else None,
        "jet_free": (
            jet_principality_oracle(germ, data, truncation) if member else None
        ),
    }


def genericity_error_to_dict(message: str, certificate) -> dict:
    return {
        "error": "genericity",
        "message": message,
        "certificate": str(certificate) if certificate is not None else None,
    }
