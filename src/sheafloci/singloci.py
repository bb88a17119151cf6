"""Loci of singular sheaves inside a fibre of curves through a configuration.

For each point of the configuration, the curves whose associated sheaf
fails to be locally free at that point form a projective-linear subspace
of the fibre: at a simple point the conditions are the vanishing of the
three partial derivatives (rank 2 modulo the fibre, by the Euler
relation); at a curvilinear fat point of multiplicity m the conditions
are the gradient at the support together with the order-m coefficient
functional along the branch, again rank 2 modulo the fibre on the
strata handled here.  Codimensions of intersections are computed as
ranks of functionals compressed to the fibre's free coordinates, which
keeps every subset query a small exact rank computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import ConfigError, DegenerateError, NotInFibreError
from .exactalg import QMatrix, integer_row, inverse, rank_of_rows, rref, solve
from .linsys import Fibre, ProjSubspace, intersect, separating_form
from .poly import HomPoly, monomials, substitute_linear
from .rng import SplitMix64
from .schemes import (
    PointConfig,
    SimplePoint,
    collinear,
    fat_point_rows,
    normalize,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def gradient_rows(p: SimplePoint, d: int) -> list:
    """Three rows evaluating the partial derivatives of a degree-d form at p."""
    x0, x1, x2 = p.coords
    pw = []
    for x in (x0, x1, x2):
        levels = [_ONE]
        for _ in range(d):
            levels.append(levels[-1] * x)
        pw.append(levels)
    rows = [[], [], []]
    for (a, b, c) in monomials(d):
        rows[0].append(a * pw[0][a - 1] * pw[1][b] * pw[2][c] if a else _ZERO)
        rows[1].append(b * pw[0][a] * pw[1][b - 1] * pw[2][c] if b else _ZERO)
        rows[2].append(c * pw[0][a] * pw[1][b] * pw[2][c - 1] if c else _ZERO)
    return rows


@dataclass(frozen=True)
class SingConditions:
    """Ambient linear functionals cutting out sheaf singularity at one point."""

    point_id: int
    kind: str
    rows: tuple


def singular_conditions(cfg: PointConfig, point_id: int) -> SingConditions:
    """Functionals whose common vanishing marks the sheaf singular at the point.

    Simple point: the three partial derivatives at the point.  Fat point:
    the three partial derivatives at the support plus the order-m
    coefficient functional along the branch, whose vanishing says the
    unit in the local presentation of the ideal degenerates.
    """
    kind, data = cfg.point(point_id)
    d = cfg.degree
    if kind == "simple":
        rows = gradient_rows(data, d)
    else:
        rows = gradient_rows(data.support, d)
        rows.extend(fat_point_rows(data, d, orders=[data.mult]))
    return SingConditions(point_id, kind, tuple(tuple(r) for r in rows))


def _compressed_block(fib: Fibre, point_id: int) -> list:
    """Reduced basis of the point's singular conditions modulo the fibre.

    Rows live in the fibre's free coordinates; their count is the
    codimension of the singular locus of this point inside the fibre.
    """
    sc = singular_conditions(fib.config, point_id)
    comp = [fib.space.compress_functional(list(r)) for r in sc.rows]
    free = len(fib.space.free_columns)
    red, pivots = rref(QMatrix.from_rows(comp, cols=free))
    return [list(red.row(i)) for i in range(len(pivots))]


def singular_subspace(fib: Fibre, point_id: int) -> ProjSubspace:
    """Curves in the fibre with singular sheaf at the point, ambiently.

    On the all-simple and one-double-point strata the result must have
    codimension 2 inside the fibre; any other value raises
    DegenerateError naming the offending point.
    """
    sc = singular_conditions(fib.config, point_id)
    sub = intersect(
        fib.space, ProjSubspace.cut_by([list(r) for r in sc.rows], fib.space.ambient)
    )
    inside = sub.codim - fib.space.codim
    if fib.config.stratum() != "deep" and inside != 2:
        raise DegenerateError(
            f"singular locus at {sc.kind} point {point_id} has codimension "
            f"{inside} in the fibre, expected 2"
        )
    return sub


def stratum_codim(fib: Fibre, point_ids: Sequence[int]) -> int:
    """Codimension, inside the fibre, of the curves singular at all given points."""
    rows = []
    for pid in point_ids:
        rows.extend(_compressed_block(fib, pid))
    return rank_of_rows(rows)


def transversality(fib: Fibre, point_ids: Sequence[int]) -> bool:
    """Whether the singular loci of the points intersect transversally."""
    total = stratum_codim(fib, point_ids)
    return total == sum(stratum_codim(fib, [pid]) for pid in point_ids)


def normal_space_dim(fib: Fibre, point_id: int) -> int:
    """Codimension of the point's singular locus inside the fibre.

    Equals the rank of the singular conditions modulo the fibre; for a
    simple point this is cross-checked against the ambient gradient rank
    minus one, the drop forced by the Euler relation.
    """
    block = _compressed_block(fib, point_id)
    k = len(block)
    kind, data = fib.config.point(point_id)
    if kind == "simple":
        ambient = rank_of_rows(gradient_rows(data, fib.degree))
        if ambient != 3:
            raise DegenerateError(
                f"gradient rows at point {point_id} have rank {ambient}, "
                f"expected 3",
                expected=3,
                actual=ambient,
            )
        if k != ambient - 1 and fib.config.stratum() != "deep":
            raise DegenerateError(
                f"normal space at point {point_id} has dimension {k}, "
                f"expected 2"
            )
    elif k != 2 and fib.config.stratum() != "deep":
        raise DegenerateError(
            f"normal space at fat point {point_id} has dimension {k}, "
            f"expected 2"
        )
    return k


def classify_curve(fib: Fibre, f: HomPoly) -> set:
    """Ids of configuration points where the sheaf of the curve is singular."""
    if f.is_zero():
        raise NotInFibreError("the zero form does not define a curve")
    if not fib.contains(f):
        raise NotInFibreError("curve does not pass through the configuration")
    out = set()
    coeffs = list(f.coeffs)
    for pid in range(1, fib.config.npoints + 1):
        sc = singular_conditions(fib.config, pid)
        if all(
            sum(r * c for r, c in zip(row, coeffs)) == 0 for row in sc.rows
        ):
            out.add(pid)
    return out


# ---------------------------------------------------------------------------
# Constructing curves with prescribed singular points


def _correction_forms(fib: Fibre, point_id: int) -> tuple:
    """Fibre members built from the point's separating form.

    The first two have gradients at the point spanning its normal space;
    the last two have zero gradient there but perturb the conditions at
    the other points, which keeps the correction system surjective for
    configurations where the first two alone line up degenerately.  All
    four vanish on the whole configuration.
    """
    cfg = fib.config
    norm_cfg, g = normalize(cfg, point_id)
    q = separating_form(norm_cfg, point_id)
    ginv = inverse(g)
    out = []
    for exp in ((2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 0, 2)):
        c_norm = HomPoly.monomial(3, exp) * q
        out.append(substitute_linear(c_norm, ginv))
    return tuple(out)


def impose_singularities(
    fib: Fibre, point_ids: Sequence[int], rng: SplitMix64, attempts: int = 8
) -> HomPoly:
    """A curve in the fibre with singular sheaf at the given simple points.

    Starts from a seeded fibre member and adds multiples of correction
    forms attached to each requested point, solving one exact linear
    system so that all gradient functionals at the chosen points vanish.
    Generically the result is singular at exactly the requested points.
    """
    ids = sorted(set(point_ids))
    if not ids:
        raise ConfigError("need at least one point to impose a singularity")
    for pid in ids:
        kind, _ = fib.config.point(pid)
        if kind != "simple":
            raise ConfigError(
                f"point {pid} is not simple; singularities are imposed at "
                f"simple points only"
            )
    free = fib.space.free_columns
    blocks = {pid: _compressed_block(fib, pid) for pid in ids}
    for pid in ids:
        if len(blocks[pid]) != 2:
            raise DegenerateError(
                f"normal space at point {pid} does not have dimension 2"
            )
    corrections = []
    for pid in ids:
        corrections.extend(_correction_forms(fib, pid))

    def free_coords(h: HomPoly) -> list:
        return [h.coeffs[c] for c in free]

    corr_free = [free_coords(c) for c in corrections]
    eq_rows = []
    for pid in ids:
        for row in blocks[pid]:
            eq_rows.append(
                [
                    sum(r * v for r, v in zip(row, cf))
                    for cf in corr_free
                ]
            )
    system = QMatrix.from_rows(eq_rows, cols=len(corrections))
    for _ in range(attempts):
        f0 = fib.random_element(rng)
        f0_free = free_coords(f0)
        rhs = []
        for pid in ids:
            for row in blocks[pid]:
                rhs.append(-sum(r * v for r, v in zip(row, f0_free)))
        sol = solve(system, rhs)
        if sol is None:
            continue
        f = f0
        for coeff, corr in zip(sol, corrections):
            if coeff != 0:
                f = f + corr.scale(coeff)
        if f.is_zero():
            continue
        missed = sum(v != 0 for v in fib.space.functionals.apply(list(f.coeffs)))
        if missed:
            raise DegenerateError(
                f"corrected curve violates {missed} membership conditions",
                expected=0,
                actual=missed,
            )
        return f
    raise DegenerateError(
        "could not cancel the gradient functionals; correction system "
        "stayed singular over all seeds"
    )


# ---------------------------------------------------------------------------
# Reports over many subsets


@dataclass(frozen=True)
class SingularLocusReport:
    """Codimension survey of singular loci inside one fibre.

    point_codims: (id, kind, codim) per configuration point.
    pair_codims: (i, j, codim) over the requested pairs.
    triple_codims: (i, j, k, codim, collinear) over the requested triples.
    subset_codims: (ids, codim) for explicitly requested subsets.
    """

    degree: int
    stratum: str
    fibre_dim: int
    point_codims: tuple
    pair_codims: tuple
    triple_codims: tuple
    subset_codims: tuple


def locus_report(
    fib: Fibre,
    pairs: bool = True,
    triples: bool = False,
    extra_subsets: Sequence[Sequence[int]] = (),
) -> SingularLocusReport:
    """Survey codimensions of singular loci and their intersections.

    Per-point condition blocks are computed and cleared of denominators
    once; each requested subset then costs one rank_of_rows call on its
    stacked integer rows.  A full row rank modulo a prime settles that
    rank at once; only rows dependent modulo the prime go on to exact
    elimination.  Extra subsets must name distinct point ids in
    1..npoints, else ConfigError.
    """
    cfg = fib.config
    ids = list(range(1, cfg.npoints + 1))
    for s in extra_subsets:
        if not all(1 <= pid <= cfg.npoints for pid in s):
            raise ConfigError(
                f"subset {tuple(s)} has a point id outside 1..{cfg.npoints}"
            )
        if len(set(s)) != len(s):
            raise ConfigError(f"subset {tuple(s)} repeats a point id")
    blocks = {
        pid: [integer_row(r)[0] for r in _compressed_block(fib, pid)] for pid in ids
    }
    point_codims = tuple(
        (pid, cfg.point(pid)[0], len(blocks[pid])) for pid in ids
    )

    def codim_of(subset):
        return rank_of_rows([row for pid in subset for row in blocks[pid]])

    pair_codims = tuple(
        (*s, codim_of(s)) for s in (combinations(ids, 2) if pairs else ())
    )
    triple_codims = tuple(
        (*s, codim_of(s), collinear(*(cfg.support_of(pid) for pid in s)))
        for s in (combinations(ids, 3) if triples else ())
    )
    return SingularLocusReport(
        degree=cfg.degree,
        stratum=cfg.stratum(),
        fibre_dim=fib.proj_dim,
        point_codims=point_codims,
        pair_codims=pair_codims,
        triple_codims=triple_codims,
        subset_codims=tuple((tuple(s), codim_of(s)) for s in extra_subsets),
    )


def asserted_violations(report: SingularLocusReport) -> list:
    """Deviations from the expected transversal codimensions.

    Expected: 2 per point, 4 per pair, 6 per non-collinear triple.
    Collinear triples are reported but never counted as violations, and
    explicitly requested subsets are informational only.
    """
    out = []
    for pid, kind, codim in report.point_codims:
        if codim != 2:
            out.append(f"point {pid} ({kind}): codim {codim}, expected 2")
    for i, j, codim in report.pair_codims:
        if codim != 4:
            out.append(f"pair ({i},{j}): codim {codim}, expected 4")
    for i, j, k, codim, is_collinear in report.triple_codims:
        if not is_collinear and codim != 6:
            out.append(f"triple ({i},{j},{k}): codim {codim}, expected 6")
    return out
