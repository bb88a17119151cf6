"""Loci of singular sheaves inside a fibre of curves through a configuration.

For each point of the configuration, the curves whose associated sheaf
fails to be locally free at that point form a projective-linear subspace
of the fibre: at a simple point the conditions are the vanishing of the
three partial derivatives (rank 2 modulo the fibre, by the Euler
relation); at a curvilinear fat point of multiplicity m the conditions
are the gradient at the support together with the order-m coefficient
functional along the branch, again rank 2 modulo the fibre.

The condition rows are integers from the start (see schemes): the
gradient rows read the point's integer coordinates.  Every codimension
goes through one block per point: _compressed_block compresses the
point's conditions to the fibre's free coordinates and inserts them, as
integer rows, into one integer echelon.  It leaves out the gradient row
at the point's last nonzero coordinate, which Euler's relation puts in
the span of the other gradient rows modulo the fibre.  The echelon rows are
a basis of the conditions modulo the fibre, so their count is the
codimension of the point's locus in the fibre, and the codimension of
an intersection is the rank of the stacked blocks.  locus_report and
normal_space_dim read these blocks, and impose_singularities builds its
curves from the kernel of the stacked blocks of the requested points.

locus_report first ranks a sketch of each subset modulo the prime P of
exactalg: every block B is multiplied once by a fixed seeded integer
matrix R with six columns and reduced mod P, and since
rank_P(B R) <= rank(B R) <= rank(B) <= rows, residues of full row rank
prove the codimension.  The subsets share prefixes: each pair extends
its first point's mod-P echelon by the second point's residues, and
each triple hands rank_of_rows the pair's echelon and only its third
point's residues.  A subset whose residues fall short, or whose stacked
blocks have more than six rows, is ranked on the blocks themselves.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from operator import mul
from typing import Sequence

from .errors import ConfigError, DegenerateError, NotInFibreError, Record
from .exactalg import (
    _PRIME,
    QMatrix,
    extend_mod_p,
    insert_row,
    kernel,
    rank_of_rows,
)
from .linsys import Fibre, random_weights
from .poly import HomPoly, monomials, powers
from .rng import SplitMix64
from .schemes import PointConfig, SimplePoint, collinear, fat_point_rows

def gradient_rows(p: SimplePoint, d: int) -> list:
    """Three rows evaluating a degree-d form's partials at p.integer_coords."""
    p0, p1, p2 = (powers(x, d) for x in p.integer_coords)
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


def _compressed_block(fib: Fibre, point_id: int) -> list:
    """Integer echelon basis of the point's singular conditions modulo the fibre.

    Rows live in the fibre's free coordinates; their count is the
    codimension of the singular locus of this point inside the fibre.
    The gradient row at the last nonzero coordinate s_K of the point (of
    its support, for a fat point) is skipped: by Euler's relation
    sum_k s_k dF/dx_k(s) = d F(s), a multiple of a membership row, so it
    compresses into the span of the gradient rows before it and
    insert_row would drop it without touching the echelon.
    """
    s = fib.config.support_of(point_id).integer_coords
    euler = max(k for k in range(3) if s[k])
    echelon = {}
    for k, r in enumerate(singular_conditions(fib.config, point_id)):
        if k != euler:
            insert_row(echelon, fib.space.compress_numerators(r)[0])
    return list(echelon.values())


def normal_space_dim(fib: Fibre, point_id: int) -> int:
    """Codimension of the point's singular locus inside the fibre.

    Equals the rank of the singular conditions modulo the fibre; for a
    simple point the ambient gradient rows must have rank 3, so that the
    Euler relation accounts for exactly one condition lost to the fibre.
    """
    k = len(_compressed_block(fib, point_id))
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

    The fibre members singular at the points are the kernel of their
    stacked blocks in the fibre's free coordinates; the result is a
    seeded nonzero integer combination of that kernel's basis.
    Generically it is singular at exactly the requested points.
    """
    ids = sorted(set(point_ids))
    if not ids:
        raise ConfigError("need at least one point to impose a singularity")
    rows = []
    for pid in ids:
        block = _compressed_block(fib, pid)
        if len(block) != 2:
            raise DegenerateError(
                f"normal space at point {pid} does not have dimension 2"
            )
        rows.extend(block)
    ker = kernel(QMatrix.from_rows(rows))
    if ker.cols == 0:
        raise DegenerateError(
            f"no curve in the fibre is singular at all of the points {ids}"
        )
    weights = random_weights(rng, ker.cols)
    return fib.element(
        [sum(map(mul, weights, ker.row(i))) for i in range(ker.rows)]
    )


# ---------------------------------------------------------------------------
# Reports over many subsets

# A sketch has as many columns as a triple's stacked blocks have rows.
_SKETCH_COLS = 6
_SKETCH_SEED = 0x736B65746368


@cache
def _sketch_matrix(n: int) -> tuple:
    """The n x 6 sketch matrix R as six columns, entries in [-2^15, 2^15]."""
    rng = SplitMix64(_SKETCH_SEED)
    rows = [
        [rng.randint(-(1 << 15), 1 << 15) for _ in range(_SKETCH_COLS)]
        for _ in range(n)
    ]
    return tuple(zip(*rows))


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

    Per-point integer blocks B_i and the residues of their sketches
    B_i R mod P are computed once.  A subset is certified when its
    stacked residues have full row rank mod P; its codimension is then
    its row count, because rank_P(B R) <= rank(B).  Each pair extends
    the mod-P echelon of its first point's residues by the second's
    (exactalg.extend_mod_p), and each subset costs one rank_of_rows
    call on its stacked blocks with that certificate: a pair passes its
    echelon, a triple (i, j, k) the pair's echelon and B_k R's residues,
    an extra subset of at most six rows its stacked residues.
    rank_of_rows reads the blocks only when the certificate falls short;
    an extra subset of more than six rows passes none.  Extra subsets
    must name distinct point ids in 1..npoints, else ConfigError.
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
    blocks = {pid: _compressed_block(fib, pid) for pid in ids}
    sketch = _sketch_matrix(len(fib.space.free_columns))
    residues = {
        pid: [[sum(map(mul, row, col)) % _PRIME for col in sketch] for row in block]
        for pid, block in blocks.items()
    }
    supports = {pid: cfg.support_of(pid) for pid in ids}
    point_codims = tuple(
        (pid, cfg.point(pid)[0], len(blocks[pid])) for pid in ids
    )

    def extend(echelon, pid):
        # the prefix's sketch echelon extended by pid's residues, or None
        # once the stacked residues fall dependent mod P
        return None if echelon is None else extend_mod_p(echelon, residues[pid])

    def stacked(subset):
        return [row for pid in subset for row in blocks[pid]]

    singles = {pid: extend({}, pid) for pid in ids}
    pair_codims = []
    triple_codims = []
    if pairs or triples:
        for i, j in combinations(ids, 2):
            prefix = extend(singles[i], j)
            if pairs:
                pair_codims.append((i, j, rank_of_rows(stacked((i, j)), prefix)))
            if not triples:
                continue
            for k in range(j + 1, cfg.npoints + 1):
                triple_codims.append(
                    (
                        i,
                        j,
                        k,
                        rank_of_rows(stacked((i, j, k)), prefix, residues[k]),
                        collinear(supports[i], supports[j], supports[k]),
                    )
                )
    def extra_codim(subset):
        # six sketch columns hold at most six pivots, so a larger subset
        # goes straight to the blocks
        rows = stacked(subset)
        if len(rows) > _SKETCH_COLS:
            return rank_of_rows(rows)
        return rank_of_rows(rows, {}, (r for pid in subset for r in residues[pid]))

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
