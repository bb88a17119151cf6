"""JSON formats for configurations, resolutions, reports, and germ queries.

All rational numbers travel as strings like "3/4" or "-7"; polynomials
travel in the canonical text form produced by their str() and accepted
by the parser.  Every payload is validated against its schema before it
is written or after it is read, and canonical_dumps renders objects
deterministically (sorted keys, two-space indent, trailing newline).

Convention note: in configuration files the fat-point entry "h" lists
the coefficients of h(y) from y^1 upward, since h(0) = 0 always; in the
local-freeness query format "h" starts at y^0 and its first entry must
be "0".
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from typing import Optional

import jsonschema

from .errors import ConfigError
from .exactalg import QMatrix, rat_from_str, rat_to_str
from .kronecker import (
    IdealResolution,
    injectivity_check,
    maximal_minors,
    stability_sufficient,
)
from .linsys import ProjSubspace
from .localfree import (
    CurveGerm,
    FatIdealData,
    fat_ideal_free,
    is_regular,
    jet_principality_oracle,
    membership,
    u_at_zero,
)
from .poly import parse_local
from .schemes import FatPoint, PointConfig, SimplePoint
from .singloci import SingularLocusReport, asserted_violations

RATIONAL_PATTERN = r"^[+-]?\d+(/[1-9]\d*)?$"

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
            "degree": {"type": "integer", "minimum": 4},
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
    "subspace": {
        "type": "object",
        "required": ["ambient", "codim", "functionals"],
        "additionalProperties": False,
        "properties": {
            "ambient": {"type": "integer", "minimum": 0},
            "codim": {"type": "integer", "minimum": 0},
            "functionals": {"type": "array", "items": {"type": "array", "items": _RATIONAL}},
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


@cache
def _validator(kind: str):
    """The named schema's validator, its schema checked once on first use."""
    schema = SCHEMAS[kind]
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_payload(obj: dict, kind: str) -> None:
    """Check a payload against the named schema; ConfigError on mismatch.

    Reports the same error jsonschema.validate would raise: the best
    match among all the errors.
    """
    e = jsonschema.exceptions.best_match(_validator(kind).iter_errors(obj))
    if e is not None:
        path = "/".join(str(p) for p in e.absolute_path) or "(root)"
        raise ConfigError(f"invalid {kind} payload at {path}: {e.message}") from e


def canonical_dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Configurations


def _triple_out(coords) -> list:
    return [rat_to_str(Fraction(c)) for c in coords]


def config_to_dict(cfg: PointConfig) -> dict:
    fat = []
    for fp in cfg.fat:
        fat.append(
            {
                "support": _triple_out(fp.support.coords),
                "chart": [_triple_out(fp.chart.row(i)) for i in range(3)],
                "h": [rat_to_str(c) for c in fp.h[1:]],
                "mult": fp.mult,
            }
        )
    out = {
        "degree": cfg.degree,
        "simple": [_triple_out(p.coords) for p in cfg.simple],
        "fat": fat,
    }
    validate_payload(out, "config")
    return out


def config_from_dict(d: dict) -> PointConfig:
    validate_payload(d, "config")
    simple = [
        SimplePoint(tuple(rat_from_str(c) for c in t)) for t in d["simple"]
    ]
    fat = []
    for entry in d["fat"]:
        chart = QMatrix.from_rows(
            [[rat_from_str(c) for c in row] for row in entry["chart"]]
        )
        support = SimplePoint(tuple(rat_from_str(c) for c in entry["support"]))
        h = (Fraction(0),) + tuple(rat_from_str(c) for c in entry["h"])
        fat.append(FatPoint.of(support, chart, h, entry["mult"]))
    return PointConfig.of(d["degree"], simple, fat)


# ---------------------------------------------------------------------------
# Resolutions and subspaces


def resolution_to_dict(res: IdealResolution) -> dict:
    phi = res.phi
    rows = []
    for i in range(phi.nrows):
        rows.append(
            [_triple_out(phi.entry(i, j).coeffs3()) for j in range(phi.ncols)]
        )
    out = {
        "degree": res.degree,
        "phi": rows,
        "generators": [str(g) for g in res.generators],
        "minors": [str(m) for m in maximal_minors(phi)],
        "injective": injectivity_check(phi),
        "stable": stability_sufficient(phi),
    }
    validate_payload(out, "resolution")
    return out


def subspace_to_dict(sub: ProjSubspace) -> dict:
    out = {
        "ambient": sub.ambient,
        "codim": sub.codim,
        "functionals": [
            [rat_to_str(v) for v in sub.functionals.row(i)]
            for i in range(sub.functionals.rows)
        ],
    }
    validate_payload(out, "subspace")
    return out


# ---------------------------------------------------------------------------
# Reports


def report_to_dict(report: SingularLocusReport) -> dict:
    out = {
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
    validate_payload(out, "report")
    return out


# ---------------------------------------------------------------------------
# Local freeness queries


def germ_query_from_dict(d: dict):
    """(germ, ideal data, truncation or None) from a query payload."""
    validate_payload(d, "localfree_query")
    h = [rat_from_str(c) for c in d["h"]]
    if h and h[0] != 0:
        raise ConfigError('the first entry of "h" must be "0" in queries')
    germ = CurveGerm(parse_local(d["f"]))
    data = FatIdealData.of(h, d["mult"])
    return germ, data, d.get("truncation")


def localfree_result_to_dict(
    germ: CurveGerm, data: FatIdealData, truncation: Optional[int] = None
) -> dict:
    """Run the freeness criterion and the jet oracle, as one payload."""
    member = membership(germ, data)
    out = {
        "f": str(germ.f),
        "h": [rat_to_str(c) for c in data.h] or ["0"],
        "mult": data.mult,
        "membership": member,
        "regular": is_regular(germ),
        "u_at_zero": rat_to_str(u_at_zero(germ, data)) if member else None,
        "free": fat_ideal_free(germ, data) if member else None,
        "jet_free": (
            jet_principality_oracle(germ, data, truncation) if member else None
        ),
    }
    validate_payload(out, "localfree_result")
    return out


def genericity_error_to_dict(message: str, certificate) -> dict:
    out = {
        "error": "genericity",
        "message": message,
        "certificate": str(certificate) if certificate is not None else None,
    }
    validate_payload(out, "genericity_error")
    return out
