"""Loci of singular sheaves inside a fibre of curves through a configuration.

For each point of the configuration, the curves whose associated sheaf
fails to be locally free at that point form a projective-linear subspace
of the fibre.  Every point is a curvilinear point of multiplicity m with
branch w (see schemes), a simple point being m = 1; the conditions are
the gradient at s = w(0) and the order-m coefficient functional along
the branch, of rank 2 modulo the fibre (condition_rows says why).

All rows are integers from the start (see schemes), and every
codimension is a rank of integer rows.  With M the fibre's l membership
rows and G_S the stacked condition rows of the points in S, two per
point, the curves singular at every point of S have codimension
rank([M; G_S]) - l in the fibre.  locus_report and normal_space_dim
rank [M; G_S] through one helper, _locus_codim.

Each rank carries a certificate mod the prime P of exactalg, on the
images of linsys, x -> (x Q, x at M's pivot columns): M's images span
the last l coordinates, and modulo them a condition row's image is the
six residues of x Q.  So [M; G_S] has full row rank if its 2|S| x 6
residue block R_S has a maximal minor nonzero mod P, since the rank of
the images mod P never exceeds the rank over Q.  A point reads the RREF
of its block R_i off exactalg's monic echelon mod P and passes 1 when
it has two pivots; every later point k's block, reduced by those two
rows, keeps four nonzero columns and their six 2 x 2 minors.  A pair
(i, j) passes one of j's minors, and a triple (i, j, k) the 4 x 4
determinant of j's and k's reduced blocks, expanded along the first two
rows into six products of their minors.
Block elimination makes each value a nonzero multiple of a maximal
minor of R_S, so it is nonzero exactly when R_S has full row rank mod
P.  A point, pair or triple whose value is 0 is ranked exactly on the
integer rows [M; G_S].  An extra subset passes no value: rank_of_rows
takes its own certificate mod P from the rows, or ranks them exactly.
A triple is collinear when the 3 x 3 determinant of its supports'
primitive vectors is 0, the dot product of the third with the cross
product of the first two, which is taken once per pair.

impose_singularities draws its curves from one exact kernel of the
same rows [M; G_S], for the requested points S, in the coordinates of
all degree-d forms.  classify_curve checks that a curve is in the
fibre by Fibre.contains, one dot product per row of M.
"""

from __future__ import annotations

from operator import mul
from typing import Optional, Sequence

from . import exactalg
from .errors import ConfigError, DegenerateError, NotInFibreError, Record
from .exactalg import QMatrix, echelon_mod_p, kernel, rank_of_rows
from .linsys import Fibre, random_weights
from .poly import HomPoly
from .rng import SplitMix64
from .schemes import PointConfig, branch_rows


def singular_conditions(cfg: PointConfig, point_id: int) -> tuple:
    """Rows of the functionals whose common vanishing marks the sheaf singular.

    grad F(s) along the point's axes n, s and t, a basis, then the
    order-m row, whose vanishing says the unit in the local presentation
    of the ideal degenerates.  The first and last are condition_rows'.
    """
    pt = cfg.point(point_id)[1]
    return tuple(tuple(r) for r in branch_rows(pt, cfg.degree, [pt.mult], pt.axes))


def condition_rows(cfg: PointConfig, point_id: int) -> list:
    """n . grad F(s) and the order-m row: they span the singular rows modulo M.

    M is the membership rows, (n, s, t) the point's axes and w its
    branch, s = w(0) and t = w'(0).  By Euler's relation s . grad F(s)
    is d times the order-0 row, and by the chain rule t . grad F(s) is
    the order-1 row.  The axes are a basis, so grad F(s) lies in the
    span of those two rows and the n-row.  When m >= 2 the order-0 and
    order-1 rows are rows of M; when m = 1 the order-0 row is, and the
    order-1 row is the order-m row kept.
    """
    pt = cfg.point(point_id)[1]
    return branch_rows(pt, cfg.degree, [pt.mult], pt.axes[:1])


def _cross(s: Sequence, t: Sequence) -> tuple:
    """The cross product s x t: its dot product with r is det(s, t, r)."""
    return (
        s[1] * t[2] - s[2] * t[1],
        s[2] * t[0] - s[0] * t[2],
        s[0] * t[1] - s[1] * t[0],
    )


def _locus_codim(fib: Fibre, rows: list, minor: int = 0) -> int:
    """rank([M; rows]) - l: the codimension in the fibre cut by the rows.

    M is the fibre's membership rows, of rank l, their count.  minor,
    when nonzero, is rank_of_rows's certificate for the stacked rows.
    """
    membership = fib.membership
    return rank_of_rows([*membership, *rows], minor) - len(membership)


def _point_echelon(block: list) -> tuple:
    """(minor, RREF) of a point's 2 x 6 residue block mod P.

    RREF is (c1, c2, e1, e2): the block's monic echelon mod P, pivots
    c1 < c2, with e1 cleared at c2.  minor is then 1, a nonzero multiple
    of the block's 2 x 2 minor at c1, c2; (0, None) below rank 2.
    """
    echelon = echelon_mod_p(block)
    if echelon is None:
        return 0, None
    c1, c2 = sorted(echelon)
    e1, e2 = echelon[c1], echelon[c2]
    f = e1[c2]
    return 1, (c1, c2, [(a - f * b) % exactalg._PRIME for a, b in zip(e1, e2)], e2)


def _reduced_minors(rref: Optional[tuple], block: list) -> tuple:
    """The six 2 x 2 minors mod P of a block reduced by a point's RREF.

    The block's rows, less their entries at the pivot columns c1 and c2
    times the RREF rows, vanish there; the minors are those of the four
    other columns, in the order 01, 02, 03, 12, 13, 23.  All are 0 when
    the point has no RREF.
    """
    if rref is None:
        return (0,) * 6
    c1, c2, e1, e2 = rref
    prime = exactalg._PRIME
    free = [c for c in range(6) if c != c1 and c != c2]
    u, v = ([(r[c] - r[c1] * e1[c] - r[c2] * e2[c]) % prime for c in free] for r in block)
    return (
        (u[0] * v[1] - u[1] * v[0]) % prime,
        (u[0] * v[2] - u[2] * v[0]) % prime,
        (u[0] * v[3] - u[3] * v[0]) % prime,
        (u[1] * v[2] - u[2] * v[1]) % prime,
        (u[1] * v[3] - u[3] * v[1]) % prime,
        (u[2] * v[3] - u[3] * v[2]) % prime,
    )


def _cofactors(m: tuple) -> tuple:
    """Signed complementary minors: with n another block's reduced minors,
    sum(map(mul, _cofactors(m), n)) is the 4 x 4 determinant of the two
    blocks stacked, by Laplace expansion along the first two rows."""
    return (m[5], -m[4], m[3], m[2], -m[1], m[0])


def normal_space_dim(fib: Fibre, point_id: int) -> int:
    """Codimension of the point's singular locus inside the fibre.

    Equals rank([M; G_p]) - l for the point's condition rows G_p, and
    must be 2; DegenerateError otherwise.
    """
    k = _locus_codim(fib, condition_rows(fib.config, point_id))
    kind = fib.config.point(point_id)[0]
    if k != 2:
        raise DegenerateError(
            f"normal space at {kind} point {point_id} has dimension {k}, "
            f"expected 2",
            expected=2,
            actual=k,
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
        if all(
            sum(r * c for r, c in zip(row, coeffs)) == 0
            for row in singular_conditions(fib.config, pid)
        ):
            out.add(pid)
    return out


# ---------------------------------------------------------------------------
# Constructing curves with prescribed singular points


def impose_singularities(
    fib: Fibre, point_ids: Sequence[int], rng: SplitMix64
) -> HomPoly:
    """A curve in the fibre with singular sheaf at the given points.

    Each point must pass normal_space_dim.  The curves of the fibre
    singular at the points are the kernel of [M; G_S], the membership
    rows stacked with the points' condition rows, the rows every locus
    codimension ranks; the result is a seeded nonzero integer
    combination of that kernel's basis.  Generically it is singular at
    exactly the requested points.
    """
    ids = sorted(set(point_ids))
    if not ids:
        raise ConfigError("need at least one point to impose a singularity")
    rows = list(fib.membership)
    for pid in ids:
        normal_space_dim(fib, pid)
        rows.extend(condition_rows(fib.config, pid))
    ker = kernel(QMatrix.from_rows(rows))
    if not ker:
        raise DegenerateError(
            f"no curve in the fibre is singular at all of the points {ids}"
        )
    weights = random_weights(rng, len(ker))
    return HomPoly.from_coeffs(fib.degree, [sum(map(mul, weights, c)) for c in zip(*ker)])


# ---------------------------------------------------------------------------
# Reports over many subsets

class SingularLocusReport(Record):
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

    Each point's condition rows G_p and their residues mod P are
    computed once (see the module docstring).  Every point, pair, triple
    and extra subset S costs one rank_of_rows call on [M; G_S], less l.
    A point passes its block's minor, a pair (i, j) a minor of j's block
    reduced by i's RREF, a triple (i, j, k) the determinant of j's and
    k's reduced blocks; rank_of_rows reads the rows only when that value
    is 0.  An extra subset passes none, so rank_of_rows reads its rows.
    Extra subsets must be non-empty and name distinct point ids in
    1..npoints, else ConfigError.
    """
    cfg = fib.config
    ids = list(range(1, cfg.npoints + 1))
    for s in extra_subsets:
        if not s:
            raise ConfigError("subset () names no point id")
        if not all(1 <= pid <= cfg.npoints for pid in s):
            raise ConfigError(
                f"subset {tuple(s)} has a point id outside 1..{cfg.npoints}"
            )
        if len(set(s)) != len(s):
            raise ConfigError(f"subset {tuple(s)} repeats a point id")
    rows = {pid: condition_rows(cfg, pid) for pid in ids}
    prime = exactalg._PRIME
    # a row's image modulo M's is x Q, its M part's zeros left out
    residues = {
        pid: [[sum(map(mul, row, q)) % prime for q in fib.members] for row in r]
        for pid, r in rows.items()
    }
    echelons = {pid: _point_echelon(residues[pid]) for pid in ids}
    supports = {pid: cfg.support_of(pid).primitive for pid in ids}
    point_codims = tuple(
        (pid, cfg.point(pid)[0], _locus_codim(fib, rows[pid], echelons[pid][0]))
        for pid in ids
    )
    pair_codims = []
    triple_codims = []
    if pairs or triples:
        for i in ids:
            rref = echelons[i][1]
            minors = {k: _reduced_minors(rref, residues[k]) for k in ids[i:]}
            for j in ids[i:]:
                pair_rows = rows[i] + rows[j]
                if pairs:
                    minor = next(filter(None, minors[j]), 0)
                    pair_codims.append((i, j, _locus_codim(fib, pair_rows, minor)))
                if not triples:
                    continue
                cofactors = _cofactors(minors[j])
                # i, j and k are collinear iff k is on the line i x j
                line = _cross(supports[i], supports[j])
                for k in ids[j:]:
                    minor = sum(map(mul, cofactors, minors[k])) % prime
                    codim = _locus_codim(fib, pair_rows + rows[k], minor)
                    on_line = sum(map(mul, line, supports[k])) == 0
                    triple_codims.append((i, j, k, codim, on_line))
    subset_codims = tuple(
        (tuple(s), _locus_codim(fib, [r for pid in s for r in rows[pid]]))
        for s in extra_subsets
    )
    return SingularLocusReport(
        degree=cfg.degree,
        stratum=cfg.stratum(),
        fibre_dim=fib.proj_dim,
        point_codims=point_codims,
        pair_codims=tuple(pair_codims),
        triple_codims=tuple(triple_codims),
        subset_codims=subset_codims,
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
