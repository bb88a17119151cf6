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
six residues of x Q.  Images of full row rank prove
rank([M; G_S]) = l + rows, since the rank of the images mod P never
exceeds the rank over Q.  The subsets share prefixes: each point
extends M's echelon by its residues, each pair extends its first
point's echelon by the second point's, and a triple (i, j, k) hands
rank_of_rows the pair's echelon and only k's residues, as already
reduced against i's in the echelon of the pair (i, k).  A subset whose
residues fall short, or that has more than six condition rows, is
ranked exactly on the integer rows [M; G_S], with no reduced echelon
form.

impose_singularities draws its curves from one exact kernel of the
same rows [M; G_S], for the requested points S, in the coordinates of
all degree-d forms.  classify_curve checks that a curve is in the
fibre by Fibre.contains, one dot product per row of M.
"""

from __future__ import annotations

from operator import mul
from typing import Optional, Sequence

from .errors import ConfigError, DegenerateError, NotInFibreError, Record
from .exactalg import (
    _PRIME,
    QMatrix,
    extend_mod_p,
    kernel,
    rank_of_rows,
)
from .linsys import _SKETCH_COLS, Fibre, random_weights
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


def _locus_codim(
    fib: Fibre, rows: list, prefix: Optional[dict] = None, residues=()
) -> int:
    """rank([M; rows]) - l: the codimension in the fibre cut by the rows.

    M is the fibre's membership rows, of rank l, their count.  prefix
    and residues, when given, are rank_of_rows's certificate for the
    stacked rows.
    """
    membership = fib.membership
    return rank_of_rows([*membership, *rows], prefix, residues) - len(membership)


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
    certificate, less l: a point passes M's echelon extended by its
    residues, a pair that echelon extended by the second point's, a
    triple (i, j, k) the pair's echelon and G_k's residues as reduced in
    the pair (i, k)'s echelon, and an extra subset of at most three
    points M's echelon and its stacked residues.
    rank_of_rows reads the rows only when the certificate falls short;
    an extra subset of more than three points passes none.  Extra
    subsets must name distinct point ids in 1..npoints, else
    ConfigError.
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
    base = None
    if fib.members:
        # M's images span 0^6 + F_P^l (see linsys): the unit rows at
        # columns 6 to 6 + l - 1 are their echelon
        end = _SKETCH_COLS + len(fib.membership)
        base = {c: [0] * c + [1] for c in range(_SKETCH_COLS, end)}
    supports = {pid: cfg.support_of(pid) for pid in ids}

    def extend(echelon, pid):
        # the prefix's echelon extended by pid's residues, or None once
        # the images fall dependent mod P
        return None if echelon is None else extend_mod_p(echelon, residues[pid])

    singles = {pid: extend(base, pid) for pid in ids}
    point_codims = tuple(
        (pid, cfg.point(pid)[0], _locus_codim(fib, rows[pid], singles[pid]))
        for pid in ids
    )
    pair_codims = []
    triple_codims = []
    if pairs or triples:
        for i in ids:
            # i's pair echelons; extend_mod_p appends the two new rows,
            # which are the later point's residues reduced against i's
            with_i = {k: extend(singles[i], k) for k in ids[i:]}
            reduced = {
                k: residues[k] if e is None else [*e.values()][-2:]
                for k, e in with_i.items()
            }
            for j in ids[i:]:
                prefix = with_i[j]
                pair_rows = rows[i] + rows[j]
                if pairs:
                    pair_codims.append((i, j, _locus_codim(fib, pair_rows, prefix)))
                if not triples:
                    continue
                for k in ids[j:]:
                    triple_codims.append(
                        (
                            i,
                            j,
                            k,
                            _locus_codim(fib, pair_rows + rows[k], prefix, reduced[k]),
                            collinear(supports[i], supports[j], supports[k]),
                        )
                    )

    def extra_codim(subset):
        # six residue columns hold at most six pivots besides M's, so a
        # larger subset passes no certificate
        stacked = [r for pid in subset for r in rows[pid]]
        if len(stacked) > _SKETCH_COLS:
            return _locus_codim(fib, stacked)
        return _locus_codim(
            fib, stacked, base, [r for pid in subset for r in residues[pid]]
        )

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
