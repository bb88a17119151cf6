"""The fibre: plane curves of a fixed degree through a point scheme.

The curves of degree d through a suitable length-l scheme Z, with
l = (d-1)(d-2)/2, form a projective-linear subspace of dimension
3d - 1 inside the P_N of all degree-d curves, N = (d+2)(d+1)/2 - 1.
Fibre holds it as the l integer membership rows M that cut it out,
plus six seeded fibre members mod P; a form is in the fibre when every
row of M annihilates it, and every locus codimension is a rank of rows
stacked under M (see singloci).

fibre decides the fibre's dimension modulo the prime P of exactalg.  It
eliminates M mod P once; l pivots prove rank(M) = l, since
rank_P <= rank_Q <= rows, and only when they fall short is M ranked
exactly.  It then keeps six seeded fibre members mod P, the columns of
Q = K R, where K spans the kernel of M mod P and R is a fixed seeded
3d x 6 sketch matrix.  The image of a row x is (x Q, x at M's pivot
columns), a fixed linear map mod P.  The rows of M map onto
0^6 + F_P^l, so modulo their images a row's image is the six entries
of x Q; singloci certifies every locus codimension on these.

ProjSubspace, a subspace stored as the graph of its pivot coordinates
over its free ones (the reduced row echelon form of the cutting
functionals as integers over one positive denominator), has no caller
in the package.  The tests compare against it as the exact fibre, and
the benchmark's tracer wraps its compress_functional, until the
benchmark moves off it (ROADMAP item 1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm
from operator import mul
from typing import Sequence

from .errors import DegenerateError, Record, ShapeError
from .exactalg import (
    _PRIME,
    QMatrix,
    extend_mod_p,
    integer_row,
    kernel,
    rank_of_rows,
    reduced_echelon,
)
from .poly import HomPoly, monomial_count
from .rng import SplitMix64
from .schemes import PointConfig, length, membership_conditions, require_generic


class ProjSubspace(Record):
    """Projective-linear subspace, the graph of its pivot coordinates.

    ambient is the projective dimension of the surrounding space.  Row i
    of block and den give the reduced echelon row with pivot pivots[i]:
    a vector lies in the subspace iff, for every i,
    den * v[pivots[i]] + sum_k block[i][k] * v[free_columns[k]] = 0.
    The entries of block and the positive den are ints, den the common
    denominator of the reduced echelon form.
    """

    ambient: int
    pivots: tuple
    free_columns: tuple
    block: tuple
    den: int

    @classmethod
    def cut_by(cls, rows: Sequence[Sequence], ambient: int) -> "ProjSubspace":
        """Subspace annihilated by the given functionals (rows of ints or Fractions)."""
        if any(len(r) != ambient + 1 for r in rows):
            raise ShapeError(f"functionals need {ambient + 1} coordinates")
        reduced = reduced_echelon(rows)
        free = tuple(j for j in range(ambient + 1) if j not in reduced)
        # a primitive reduced row is its RREF row times its pivot entry
        den = lcm(*(abs(row[c]) for c, row in reduced.items()))
        block = tuple(
            tuple(row[j] * (den // row[c]) for j in free)
            for c, row in reduced.items()
        )
        return cls(ambient, tuple(reduced), free, block, den)

    @property
    def codim(self) -> int:
        return len(self.pivots)

    @property
    def proj_dim(self) -> int:
        return self.ambient - self.codim

    def contains(self, vec: Sequence) -> bool:
        if len(vec) != self.ambient + 1:
            raise ShapeError(
                f"vector has {len(vec)} coordinates, expected {self.ambient + 1}"
            )
        free = [vec[j] for j in self.free_columns]
        return all(
            self.den * vec[p] + sum(map(mul, row, free)) == 0
            for p, row in zip(self.pivots, self.block)
        )

    def basis(self) -> list:
        """Vectors spanning the subspace, one per free column."""
        rows = []
        for p, row in zip(self.pivots, self.block):
            full = [0] * (self.ambient + 1)
            full[p] = self.den
            for j, a in zip(self.free_columns, row):
                full[j] = a
            rows.append(full)
        return kernel(QMatrix.from_rows(rows, cols=self.ambient + 1))

    def compress_numerators(self, row: Sequence) -> tuple:
        """(numerators, den): compress_functional(row) is numerators / den.

        The numerators are integers; their row is a positive multiple of
        the compressed functional, so integer eliminations read it as is.
        """
        if len(row) != self.ambient + 1:
            raise ShapeError(
                f"functional has {len(row)} coordinates, expected {self.ambient + 1}"
            )
        if all(type(a) is int for a in row):
            ints, scale = row, 1
        else:
            ints, scale = integer_row(row)
        out = [self.den * ints[j] for j in self.free_columns]
        for p, m in zip(self.pivots, self.block):
            c = ints[p]
            if c:
                out = [a - c * b for a, b in zip(out, m)]
        return out, scale * self.den

    def compress_functional(self, row: Sequence) -> list:
        """Coordinates of the restricted functional in the free-column basis.

        With b_j the basis column attached to free column j, entry j equals
        the value of the functional on b_j, which is the functional minus
        the combination of the cutting rows that clears its pivot columns,
        read at column j.  With the reduced cutting rows block/den and the
        functional R/s cleared of its own denominators, entry j is
        (den*R_j - sum_p R_p*block_pj) / (s*den), computed on integers by
        compress_numerators.  Ranks of stacked compressed rows are
        codimensions inside the subspace.
        """
        out, den = self.compress_numerators(row)
        return [Fraction(a, den) for a in out]


# ---------------------------------------------------------------------------
# The fibre: curves of degree d through the whole configuration


class Fibre(Record):
    """Degree-d curves through the configuration, a P_{3d-1}.

    membership holds the integer membership rows M, one per length unit
    of the scheme: a form lies in the fibre iff every row of M
    annihilates its coefficients.  members holds six seeded fibre
    members mod P as coefficient tuples, the columns of Q (see the
    module docstring); it is empty when M falls short of full row rank
    mod P.
    """

    config: PointConfig
    membership: tuple
    members: tuple

    @property
    def degree(self) -> int:
        return self.config.degree

    @property
    def proj_dim(self) -> int:
        # fibre() proves rank(M) = len(M), mod P or exactly
        return monomial_count(self.degree) - 1 - len(self.membership)

    def contains(self, f: HomPoly) -> bool:
        if f.degree != self.degree:
            raise ShapeError(
                f"form has degree {f.degree}, fibre degree is {self.degree}"
            )
        return not any(sum(map(mul, row, f.coeffs)) for row in self.membership)


def random_weights(rng: SplitMix64, n: int) -> list:
    """n seeded integers in [-9, 9], redrawn while all of them are zero."""
    while True:
        weights = [rng.randint(-9, 9) for _ in range(n)]
        if any(weights):
            return weights


# A sketch has as many columns as a triple's condition rows.
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


def _members_mod_p(rows: Sequence[Sequence], rank: int) -> tuple:
    """Six fibre members mod P, or () unless the rows have rank pivots mod P.

    The members are the columns of K R, where K holds one kernel vector
    of the rows mod P per free column of their echelon, with a 1 there.
    So each member takes a column of R at the free columns, and its
    pivot entries follow by back-substitution through the echelon, from
    the last pivot up.
    """
    echelon = extend_mod_p({}, ([a % _PRIME for a in r] for r in rows))
    if echelon is None or len(echelon) != rank:
        return ()
    n = len(rows[0])
    free = [j for j in range(n) if j not in echelon]
    steps = [
        (c, echelon[c][c + 1 :], pow(-echelon[c][c], -1, _PRIME))
        for c in sorted(echelon, reverse=True)
    ]
    members = []
    for col in _sketch_matrix(len(free)):
        v = [0] * n
        for j, a in zip(free, col):
            v[j] = a % _PRIME
        for c, tail, inv in steps:
            v[c] = sum(map(mul, tail, v[c + 1 :])) * inv % _PRIME
        members.append(tuple(v))
    return tuple(members)


def fibre(cfg: PointConfig) -> Fibre:
    """The curves of degree d through the configuration.

    Raises GenericityError, carrying a nonzero low-degree certificate
    curve, when the configuration lies on a curve of degree d - 3; for
    admissible configurations the result has projective dimension 3d - 1.
    The rank of the membership rows is certified mod P; only when that
    falls short are they ranked exactly, against the scheme length.
    """
    d = cfg.degree
    require_generic(cfg)
    rows = tuple(tuple(r) for r in membership_conditions(cfg, d))
    fib = Fibre(cfg, rows, _members_mod_p(rows, length(cfg)))
    if not fib.members:
        rank = rank_of_rows(rows)
        if rank != length(cfg):
            raise DegenerateError(
                f"membership conditions in degree {d} have rank {rank}, "
                f"expected the scheme length {length(cfg)}",
                expected=length(cfg),
                actual=rank,
            )
    if fib.proj_dim != 3 * d - 1:
        raise DegenerateError(
            f"fibre has dimension {fib.proj_dim}, expected {3 * d - 1}",
            expected=3 * d - 1,
            actual=fib.proj_dim,
        )
    return fib
