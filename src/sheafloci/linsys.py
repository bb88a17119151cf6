"""Linear subspaces of the space of plane curves of a fixed degree.

The curves of degree d through a suitable length-l scheme Z, with
l = (d-1)(d-2)/2, form a projective-linear subspace of dimension
3d - 1 inside the P_N of all degree-d curves, N = (d+2)(d+1)/2 - 1.
This module represents such subspaces by reduced systems of linear
functionals and provides the coordinate machinery used downstream:
the compressed (free-column) picture of extra functionals, in which
codimensions inside the subspace become plain matrix ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import DegenerateError, ShapeError
from .exactalg import QMatrix, integer_row, kernel, rref_rows
from .poly import HomPoly, monomial_count
from .rng import SplitMix64
from .schemes import PointConfig, length, membership_conditions, require_generic

_ZERO = Fraction(0)


@dataclass(frozen=True)
class ProjSubspace:
    """Projective-linear subspace cut out by a reduced system of functionals.

    ambient is the projective dimension of the surrounding space;
    functionals is in reduced row echelon form with no zero rows, one row
    per independent condition.
    """

    ambient: int
    functionals: QMatrix
    pivots: tuple

    def __post_init__(self):
        if self.functionals.cols != self.ambient + 1:
            raise ShapeError(
                f"functionals have {self.functionals.cols} columns, "
                f"ambient dimension {self.ambient} needs {self.ambient + 1}"
            )

    @classmethod
    def whole(cls, ambient: int) -> "ProjSubspace":
        return cls(ambient, QMatrix.from_rows([], cols=ambient + 1), ())

    @classmethod
    def cut_by(cls, rows: Sequence[Sequence], ambient: int) -> "ProjSubspace":
        """Subspace annihilated by the given functionals (rows)."""
        red, pivots = rref_rows([list(r) for r in rows])
        return cls(ambient, QMatrix.from_rows(red, cols=ambient + 1), pivots)

    @property
    def codim(self) -> int:
        return self.functionals.rows

    @property
    def proj_dim(self) -> int:
        return self.ambient - self.codim

    @property
    def free_columns(self) -> tuple:
        piv = set(self.pivots)
        return tuple(j for j in range(self.ambient + 1) if j not in piv)

    def contains(self, vec: Sequence) -> bool:
        if len(vec) != self.ambient + 1:
            raise ShapeError(
                f"vector has {len(vec)} coordinates, expected {self.ambient + 1}"
            )
        return all(v == 0 for v in self.functionals.apply(list(vec)))

    def basis(self) -> QMatrix:
        """Columns spanning the subspace, one per free column."""
        return kernel(self.functionals)

    @cached_property
    def _integer_functionals(self) -> tuple:
        """(L, free columns, [(pivot, L * row at the free columns)]).

        L is the common denominator of the functionals, whose pivot
        columns hold only 0 and 1; computed once per subspace.
        """
        free = self.free_columns
        k = len(free)
        rows = self.functionals.row_lists()
        flat, common = integer_row([r[j] for r in rows for j in free])
        scaled = [(p, flat[i * k : (i + 1) * k]) for i, p in enumerate(self.pivots)]
        return common, free, scaled

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
        common, free, scaled = self._integer_functionals
        out = [common * ints[j] for j in free]
        for p, m in scaled:
            c = ints[p]
            if c:
                out = [a - c * b for a, b in zip(out, m)]
        return out, scale * common

    def compress_functional(self, row: Sequence) -> list:
        """Coordinates of the restricted functional in the free-column basis.

        With b_j the basis column attached to free column j, entry j equals
        the value of the functional on b_j, which is the functional minus
        the combination of the cutting rows that clears its pivot columns,
        read at column j.  With the cutting rows M/L over one denominator
        and the functional R/s cleared of its own, entry j is
        (L*R_j - sum_p R_p*M_pj) / (s*L), computed on integers by
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
        free = self.space.free_columns
        if len(free_coords) != len(free):
            raise ShapeError(
                f"expected {len(free)} free coordinates, got {len(free_coords)}"
            )
        n = self.space.ambient + 1
        coeffs = [_ZERO] * n
        for j, c in zip(free, free_coords):
            coeffs[j] = Fraction(c)
        rows = self.space.functionals.row_lists()
        for rr, p in zip(rows, self.space.pivots):
            coeffs[p] = -sum(
                rr[j] * coeffs[j] for j in free if rr[j] != 0
            )
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
    m = membership_conditions(cfg, d)
    space = ProjSubspace.cut_by(m.row_lists(), monomial_count(d) - 1)
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
