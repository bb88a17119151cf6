"""Loci of singular sheaves inside a fibre of curves through a configuration.

For each point of the configuration, the curves whose associated sheaf
fails to be locally free at that point form a projective-linear subspace
of the fibre: at a simple point the conditions are the vanishing of the
three partial derivatives (rank 2 modulo the fibre, by the Euler
relation); at a curvilinear fat point of multiplicity m the conditions
are the gradient at the support together with the order-m coefficient
functional along the branch, again rank 2 modulo the fibre.

The condition rows are integers from the start (see schemes): the
gradient rows read the point's primitive integer representative.  Every
codimension is a rank of integer rows.  With M the fibre's l membership
rows and G_S the stacked condition rows of the points in S, the curves
singular at every point of S have codimension rank([M; G_S]) - l in the
fibre.
condition_rows gives two rows per point, leaving out rows that exact
identities put in the span of M and the rows kept: at a simple point
the gradient row that Euler's relation fixes, at a fat point all
gradient rows but one, since Euler's relation and the chain rule make
two independent combinations of them multiples of the order-0 and
order-1 branch rows, which are rows of M.  locus_report and
normal_space_dim rank [M; G_S] through one helper, _locus_codim.

Each rank carries a certificate mod the prime P of exactalg, on the
images of linsys, x -> (x Q, x at M's pivot columns): M's images span
the last l coordinates, and modulo them a condition row's image is the
six residues of x Q.  So [M; G_S] has full row rank if its 2|S| x 6
residue block R_S has a maximal minor nonzero mod P, since the rank of
the images mod P never exceeds the rank over Q.  A point passes a 2 x 2
minor of its block R_i and keeps the RREF of R_i mod P; every later
point k's block, reduced by those two rows, keeps four nonzero columns
and their six 2 x 2 minors.  A pair (i, j) passes one of j's minors, and
a triple (i, j, k) the 4 x 4 determinant of j's and k's reduced blocks,
expanded along the first two rows into six products of their minors.
Block elimination makes each value a nonzero multiple of a maximal
minor of R_S, so it is nonzero exactly when R_S has full row rank mod
P.  A subset whose value is 0, or that has more than three points, is
ranked exactly on the integer rows [M; G_S].

impose_singularities draws its curves from one exact kernel of the
same rows [M; G_S], for the requested points S, in the coordinates of
all degree-d forms.  classify_curve checks that a curve is in the
fibre by Fibre.contains, one dot product per row of M.
"""

from __future__ import annotations

from itertools import combinations
from operator import mul
from typing import Optional, Sequence

from .errors import ConfigError, DegenerateError, NotInFibreError, Record
from .exactalg import _PRIME, QMatrix, kernel, rank_of_rows
from .linsys import Fibre, random_weights
from .poly import HomPoly, monomials, powers
from .rng import SplitMix64
from .schemes import PointConfig, SimplePoint, collinear, fat_point_rows

def gradient_rows(p: SimplePoint, d: int) -> list:
    """Three rows evaluating a degree-d form's partials at p.primitive."""
    p0, p1, p2 = (powers(x, d) for x in p.primitive)
    rows = [[], [], []]
    for (a, b, c) in monomials(d):
        rows[0].append(a * p0[a - 1] * p1[b] * p2[c] if a else 0)
        rows[1].append(b * p0[a] * p1[b - 1] * p2[c] if b else 0)
        rows[2].append(c * p0[a] * p1[b] * p2[c - 1] if c else 0)
    return rows


def singular_conditions(cfg: PointConfig, point_id: int) -> tuple:
    """Rows of the functionals whose common vanishing marks the sheaf singular.

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
    return tuple(tuple(r) for r in rows)


def condition_rows(cfg: PointConfig, point_id: int) -> list:
    """Two of the point's singular rows, which span all of them modulo M.

    M is the membership rows.  Simple point with s = p.primitive:
    the gradient rows but the one at the last nonzero coordinate K of s,
    since Euler's relation sum_k s_k dF/dx_k(s) = d F(s) is d times the
    point's membership row.  Fat point with support s: one gradient row
    j and the order-m row.  With t = frame (0, 1, h_1) the branch's
    tangent direction, Euler's relation makes s . grad F(s) a multiple
    of the order-0 branch row, and the chain rule makes t . grad F(s) a
    multiple of the order-1 branch row; both are rows of M.  So every
    gradient row lies in the span of M and row j, for any j with
    (s x t)_j != 0, that is with e_j off the plane of s and t.
    """
    kind, data = cfg.point(point_id)
    d = cfg.degree
    if kind == "simple":
        s = data.primitive
        euler = max(k for k in range(3) if s[k])
        return [r for k, r in enumerate(gradient_rows(data, d)) if k != euler]
    s = data.support.primitive
    frame, h = data.frame, data.h
    h1 = h[1] if len(h) > 1 else 0
    t = [frame.get(i, 1) + h1 * frame.get(i, 2) for i in range(3)]
    cross = (
        s[1] * t[2] - s[2] * t[1],
        s[2] * t[0] - s[0] * t[2],
        s[0] * t[1] - s[1] * t[0],
    )
    j = next(k for k in range(3) if cross[k])
    (order_m,) = fat_point_rows(data, d, orders=[data.mult])
    return [gradient_rows(data.support, d)[j], order_m]


def _locus_codim(fib: Fibre, rows: list, minor: int = 0) -> int:
    """rank([M; rows]) - l: the codimension in the fibre cut by the rows.

    M is the fibre's membership rows, of rank l, their count.  minor,
    when nonzero, is rank_of_rows's certificate for the stacked rows.
    """
    membership = fib.membership
    return rank_of_rows([*membership, *rows], minor) - len(membership)


def _point_echelon(block: list) -> tuple:
    """(minor, RREF) of a point's 2 x 6 residue block mod P.

    minor is the block's first nonzero 2 x 2 minor, at its pivot columns
    c1 < c2, and RREF is (c1, c2, e1, e2), its reduced row echelon form
    mod P; (0, None) when the block has rank below 2.
    """
    a, b = block
    for c1, c2 in combinations(range(len(a)), 2):
        minor = (a[c1] * b[c2] - a[c2] * b[c1]) % _PRIME
        if minor:
            # the inverse of the 2 x 2 block at c1, c2 times the rows
            inv = pow(minor, -1, _PRIME)
            e1 = [(b[c2] * x - a[c2] * y) * inv % _PRIME for x, y in zip(a, b)]
            e2 = [(a[c1] * y - b[c1] * x) * inv % _PRIME for x, y in zip(a, b)]
            return minor, (c1, c2, e1, e2)
    return 0, None


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
    free = [c for c in range(6) if c != c1 and c != c2]
    u, v = ([(r[c] - r[c1] * e1[c] - r[c2] * e2[c]) % _PRIME for c in free] for r in block)
    return (
        (u[0] * v[1] - u[1] * v[0]) % _PRIME,
        (u[0] * v[2] - u[2] * v[0]) % _PRIME,
        (u[0] * v[3] - u[3] * v[0]) % _PRIME,
        (u[1] * v[2] - u[2] * v[1]) % _PRIME,
        (u[1] * v[3] - u[3] * v[1]) % _PRIME,
        (u[2] * v[3] - u[3] * v[2]) % _PRIME,
    )


def _cofactors(m: tuple) -> tuple:
    """Signed complementary minors: with n another block's reduced minors,
    sum(map(mul, _cofactors(m), n)) is the 4 x 4 determinant of the two
    blocks stacked, by Laplace expansion along the first two rows."""
    return (m[5], -m[4], m[3], m[2], -m[1], m[0])


def _subset_minor(blocks: list) -> int:
    """A maximal minor mod P of one to three stacked residue blocks, up to
    a nonzero factor, as locus_report takes it for a point, pair or triple."""
    minor, rref = _point_echelon(blocks[0])
    m = [_reduced_minors(rref, b) for b in blocks[1:]]
    if len(m) == 2:
        return sum(map(mul, _cofactors(m[0]), m[1])) % _PRIME
    return next(filter(None, m[0]), 0) if m else minor


def normal_space_dim(fib: Fibre, point_id: int) -> int:
    """Codimension of the point's singular locus inside the fibre.

    Equals rank([M; G_p]) - l for the point's condition rows G_p; for a
    simple point the ambient gradient rows must have rank 3, so that the
    Euler relation accounts for exactly one condition lost to the fibre.
    """
    k = _locus_codim(fib, condition_rows(fib.config, point_id))
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
    and extra subset S costs one rank_of_rows call on [M; G_S] with a
    certificate, less l: a point passes its block's minor, a pair (i, j)
    a minor of j's block reduced by i's RREF, a triple (i, j, k) the
    determinant of j's and k's reduced blocks, and an extra subset of at
    most three points the same value for its points in the given order.
    rank_of_rows reads the rows only when that value is 0; an extra
    subset of more than three points passes none.  Extra subsets must
    name distinct point ids in 1..npoints, else ConfigError.
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
    rows = {pid: condition_rows(cfg, pid) for pid in ids}
    # a row's image modulo M's is x Q, its M part's zeros left out
    residues = {
        pid: [[sum(map(mul, row, q)) % _PRIME for q in fib.members] for row in r]
        for pid, r in rows.items()
    }
    echelons = {pid: _point_echelon(residues[pid]) for pid in ids}
    supports = {pid: cfg.support_of(pid) for pid in ids}
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
                for k in ids[j:]:
                    minor = sum(map(mul, cofactors, minors[k])) % _PRIME
                    codim = _locus_codim(fib, pair_rows + rows[k], minor)
                    line = collinear(supports[i], supports[j], supports[k])
                    triple_codims.append((i, j, k, codim, line))

    def extra_codim(subset):
        blocks = [residues[pid] for pid in subset]
        minor = _subset_minor(blocks) if 1 <= len(subset) <= 3 else 0
        return _locus_codim(fib, [r for pid in subset for r in rows[pid]], minor)

    subset_codims = tuple((tuple(s), extra_codim(s)) for s in extra_subsets)
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
