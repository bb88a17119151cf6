"""Matrices of linear forms resolving the ideal of a point configuration.

For a configuration Z of length (d-1)(d-2)/2 in general position the
degree-(d-2) curves through Z form an n-dimensional space, n = d - 1,
and the linear syzygies among n chosen generators form an
(n-1)-dimensional space.  Writing the syzygies as columns gives an
n x (n-1) matrix of linear forms (degree-1 HomPolys), a Kronecker
module.  Its maximal minors reproduce the generators, and bordering it
with a column of quadratic forms produces the degree-d curves through Z
as determinants: det [q | phi] = sum_i q_i m_i with m_i the signed
maximal minors.  All n minors come from one column expansion of phi
(poly.column_minors); det [q | phi] is a poly.det_poly_matrix call.

Each linear system of the layer (the syzygies among the generators, the
column syzygies of phi, the bordering column of a curve) asks for forms
l_i of one degree with sum_i l_i * forms[i] given, and is built by
_product_rows.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import DegenerateError, NotInFibreError, Record, ShapeError
from .exactalg import QMatrix, kernel, rank_of_rows, solve
from .poly import HomPoly, column_minors, det_poly_matrix, monomials
from .schemes import PointConfig, membership_conditions, require_generic


class KroneckerModule(Record):
    """n x (n-1) matrix of degree-1 forms, stored row-major."""

    entries: tuple

    def __post_init__(self):
        n = len(self.entries)
        if n < 2:
            raise ShapeError("a Kronecker module needs at least two rows")
        for row in self.entries:
            if len(row) != n - 1:
                raise ShapeError(
                    f"rows must have length {n - 1}, got {len(row)}"
                )
            for e in row:
                if not isinstance(e, HomPoly) or e.degree != 1:
                    raise ShapeError("entries must be linear forms")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[HomPoly]]) -> "KroneckerModule":
        return cls(tuple(tuple(r) for r in rows))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries) - 1

    @property
    def curve_degree(self) -> int:
        """Degree d of the curves this module belongs to (d = nrows + 1)."""
        return self.nrows + 1

    def entry(self, i: int, j: int) -> HomPoly:
        return self.entries[i][j]

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.nrows))


class IdealResolution(Record):
    """Generators of the degree-(d-2) part of the ideal and their syzygies."""

    phi: KroneckerModule
    generators: tuple

    @property
    def degree(self) -> int:
        return self.phi.curve_degree


def kronecker_from_points(cfg: PointConfig) -> IdealResolution:
    """Resolve the ideal of the configuration in degree d - 2.

    A configuration on a degree-(d-3) curve raises GenericityError with
    the certificate.  Stage one takes the kernel of the degree-(d-2)
    membership conditions, which must have dimension n = d - 1, and its
    basis vectors are the generators; stage two solves for all linear
    syzygies among those generators, which must form an (n-1)-dimensional
    space, and each basis vector, cut into the n linear forms it holds,
    is a column of phi.  Either failure raises DegenerateError.
    """
    require_generic(cfg)
    d = cfg.degree
    n = d - 1
    ker = kernel(QMatrix.from_rows(membership_conditions(cfg, d - 2)))
    if len(ker) != n:
        raise DegenerateError(
            f"degree-{d - 2} curves through the configuration form a space "
            f"of dimension {len(ker)}, expected {n}"
        )
    gens = [HomPoly.from_coeffs(d - 2, v) for v in ker]
    syz = kernel(QMatrix.from_rows(_product_rows(gens, 1)))
    if len(syz) != n - 1:
        raise DegenerateError(
            f"linear syzygies form a space of dimension {len(syz)}, "
            f"expected {n - 1}"
        )
    rows = [[HomPoly(1, tuple(c[3 * i : 3 * i + 3])) for c in syz] for i in range(n)]
    return IdealResolution(KroneckerModule.from_rows(rows), tuple(gens))


def _product_rows(forms: Sequence[HomPoly], k: int) -> list:
    """Rows of the map (l_0, l_1, ...) -> sum_i l_i * forms[i], deg l_i = k.

    The forms share one degree.  Column len(monomials(k)) * i + t holds
    the coefficients of monomials(k)[t] * forms[i], so the unknowns are
    the coefficients of l_0, then of l_1, and so on; row r is the
    coefficient of the r-th monomial of the sum.
    """
    cols = [(HomPoly.monomial(k, t) * f).coeffs for f in forms for t in monomials(k)]
    return [list(r) for r in zip(*cols)]


def maximal_minors(phi: KroneckerModule) -> list:
    """Signed maximal minors m_i = (-1)^i det(phi with row i deleted)."""
    full = (1 << phi.nrows) - 1
    minors = column_minors(phi.entries)
    unsigned = [minors[full ^ 1 << i] for i in range(phi.nrows)]
    return [-m if i % 2 else m for i, m in enumerate(unsigned)]


def resolution_check(
    phi: KroneckerModule,
    generators: Optional[Sequence[HomPoly]] = None,
    minors: Optional[Sequence[HomPoly]] = None,
) -> bool:
    """Check the determinantal identities tying phi to its minors.

    Always checks that the row vector of signed maximal minors annihilates
    phi column by column.  When generators are supplied, also checks that
    every column of phi is a syzygy of them.  Supplied minors or
    generators must hold one form per row of phi, or ShapeError.
    """
    n = phi.nrows
    if minors is None:
        minors = maximal_minors(phi)
    vectors = [minors] if generators is None else [minors, generators]
    if any(len(forms) != n for forms in vectors):
        raise ShapeError(f"expected {n} forms, one per row, got {[len(v) for v in vectors]}")
    zero = HomPoly.zero(phi.curve_degree - 1)
    return all(
        sum((g * e for g, e in zip(forms, phi.column(j))), zero).is_zero()
        for forms in vectors
        for j in range(n - 1)
    )


def injectivity_system(phi: KroneckerModule) -> list:
    """Rows of the system whose kernel is the space of linear column syzygies.

    Unknowns are the 3(n-1) coefficients of linear forms l_0, ..., l_{n-2};
    the equations say sum_j phi[i][j] l_j = 0 for every row i, expanded
    into the 6 quadratic monomial coordinates each.
    """
    return [r for row in phi.entries for r in _product_rows(row, 1)]


def injectivity_check(phi: KroneckerModule) -> bool:
    """Whether the columns admit no syzygy with linear-form coefficients.

    A nonzero solution of the injectivity system exhibits a kernel element
    of the sheaf map defined by phi, so the map fails to be injective;
    scalar dependencies among the columns are caught too, as their
    coordinate multiples.  True means no such syzygy exists.  That is
    full column rank, so the system's 3(n-1) columns are ranked as rows:
    rank_of_rows's mod-P certificate proves full row rank.
    """
    return rank_of_rows(list(zip(*injectivity_system(phi)))) == 3 * phi.ncols


def stability_sufficient(minors: Sequence[HomPoly]) -> bool:
    """Linear independence of a module's maximal minors as degree-(d-2) forms.

    Takes the list maximal_minors(phi) returns.  Independence rules out
    the degenerations that produce non-stable modules in this family;
    modules resolved from admissible point configurations pass.
    """
    return rank_of_rows([p.coeffs for p in minors]) == len(minors)


# ---------------------------------------------------------------------------
# Bordered matrices: curves as determinants


class SheafMatrix(Record):
    """Kronecker module bordered by a column of quadratic forms.

    The determinant of the square matrix [quad | phi] is a curve of
    degree d = n + 1 through the underlying configuration.
    """

    quad: tuple
    phi: KroneckerModule

    def __post_init__(self):
        _check_quad(self.quad, self.phi.nrows)

    def curve(self) -> HomPoly:
        return curve_from_pair(self.quad, self.phi)


def _check_quad(quad: Sequence[HomPoly], n: int) -> None:
    if len(quad) != n:
        raise ShapeError(f"quadratic column must have length {n}")
    if any(q.degree != 2 for q in quad):
        raise ShapeError("bordering column entries must be quadratic")


def curve_from_pair(quad: Sequence[HomPoly], phi: KroneckerModule) -> HomPoly:
    """det [quad | phi], a degree-d form; DegenerateError if it vanishes.

    ShapeError unless quad holds one quadratic form per row of phi.
    """
    _check_quad(quad, phi.nrows)
    # expanded last, the quadratic column raises the degree of no memoized
    # minor; det [quad | phi] = (-1)^(n-1) det [phi | quad]
    f = det_poly_matrix([[*row, q] for q, row in zip(quad, phi.entries)])
    if phi.nrows % 2 == 0:
        f = -f
    if f.is_zero():
        raise DegenerateError("bordered determinant vanishes identically")
    return f


def pair_from_curve(phi: KroneckerModule, f: HomPoly) -> SheafMatrix:
    """Quadratic bordering column with det [quad | phi] = f.

    Solves sum_i q_i m_i = f for the quadratic coefficients; raises
    NotInFibreError when f is not a combination of the maximal minors,
    which for point-derived modules means f does not pass through the
    configuration.
    """
    d = phi.curve_degree
    if f.degree != d:
        raise ShapeError(f"curve has degree {f.degree}, module expects {d}")
    system = QMatrix.from_rows(_product_rows(maximal_minors(phi), 2))
    sol = solve(system, list(f.coeffs))
    if sol is None:
        raise NotInFibreError(
            "curve is not a quadratic combination of the maximal minors"
        )
    quad = [HomPoly.from_coeffs(2, sol[6 * i : 6 * i + 6]) for i in range(phi.nrows)]
    return SheafMatrix(tuple(quad), phi)
