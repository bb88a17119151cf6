"""Linear subspaces of the space of plane curves of a fixed degree.

The curves of degree d through a suitable length-l scheme Z, with
l = (d-1)(d-2)/2, form a projective-linear subspace of dimension
3d - 1 inside the P_N of all degree-d curves, N = (d+2)(d+1)/2 - 1.
This module represents such a subspace as the graph of its pivot
coordinates over its free ones: the reduced row echelon form of the
cutting functionals, stored once as integers over one positive
denominator.  It provides the coordinate machinery used downstream:
the compressed (free-column) picture of extra functionals, in which
codimensions inside the subspace become plain matrix ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .errors import DegenerateError, ShapeError
from .exactalg import QMatrix, integer_row, kernel, reduced_echelon
from .poly import HomPoly, monomial_count
from .rng import SplitMix64
from .schemes import PointConfig, length, membership_conditions, require_generic

_ZERO = Fraction(0)


@dataclass(frozen=True)
class ProjSubspace:
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

    def basis(self) -> QMatrix:
        """Columns spanning the subspace, one per free column."""
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


@dataclass(frozen=True)
class Fibre:
    """Degree-d curves through the configuration, a P_{3d-1}.

    space lives inside the P_N of all degree-d curves; basis_forms gives
    3d spanning polynomials indexed by the free columns of the membership
    conditions.
    """

    config: PointConfig
    space: ProjSubspace

    @property
    def degree(self) -> int:
        return self.config.degree

    @property
    def proj_dim(self) -> int:
        return self.space.proj_dim

    def basis_forms(self) -> list:
        b = self.space.basis()
        return [HomPoly.from_coeffs(self.degree, b.col(j)) for j in range(b.cols)]

    def element(self, free_coords: Sequence) -> HomPoly:
        """The member with the given coordinates at the free columns."""
        space = self.space
        free = space.free_columns
        if len(free_coords) != len(free):
            raise ShapeError(
                f"expected {len(free)} free coordinates, got {len(free_coords)}"
            )
        coeffs = [_ZERO] * (space.ambient + 1)
        for j, c in zip(free, free_coords):
            coeffs[j] = c
        for p, row in zip(space.pivots, space.block):
            coeffs[p] = Fraction(-sum(map(mul, row, free_coords)), space.den)
        return HomPoly.from_coeffs(self.degree, coeffs)

    def contains(self, f: HomPoly) -> bool:
        if f.degree != self.degree:
            raise ShapeError(
                f"form has degree {f.degree}, fibre degree is {self.degree}"
            )
        return self.space.contains(f.coeffs)

    def random_element(self, rng: SplitMix64) -> HomPoly:
        """Seeded member with integer free coordinates in [-9, 9]."""
        return self.element(random_weights(rng, len(self.space.free_columns)))


def random_weights(rng: SplitMix64, n: int) -> list:
    """n seeded integers in [-9, 9], redrawn while all of them are zero."""
    while True:
        weights = [rng.randint(-9, 9) for _ in range(n)]
        if any(weights):
            return weights


def fibre(cfg: PointConfig) -> Fibre:
    """The curves of degree d through the configuration.

    Raises GenericityError, carrying a nonzero low-degree certificate
    curve, when the configuration lies on a curve of degree d - 3; for
    admissible configurations the result has projective dimension 3d - 1.
    """
    d = cfg.degree
    require_generic(cfg)
    space = ProjSubspace.cut_by(membership_conditions(cfg, d), monomial_count(d) - 1)
    if space.codim != length(cfg):
        raise DegenerateError(
            f"membership conditions in degree {d} have rank {space.codim}, "
            f"expected the scheme length {length(cfg)}",
            expected=length(cfg),
            actual=space.codim,
        )
    if space.proj_dim != 3 * d - 1:
        raise DegenerateError(
            f"fibre has dimension {space.proj_dim}, expected {3 * d - 1}",
            expected=3 * d - 1,
            actual=space.proj_dim,
        )
    return Fibre(cfg, space)
