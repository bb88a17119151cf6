"""Matrices of linear forms resolving the ideal of a point configuration.

For a configuration Z of length (d-1)(d-2)/2 in general position the
degree-(d-2) curves through Z form an n-dimensional space, n = d - 1,
and the linear syzygies among n chosen generators form an
(n-1)-dimensional space.  Writing the syzygies as columns gives an
n x (n-1) matrix of linear forms, a Kronecker module.  Its maximal
minors reproduce the generators, and bordering it with a column of
quadratic forms produces the degree-d curves through Z as determinants:
det [q | phi] = sum_i q_i m_i with m_i the signed maximal minors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DegenerateError, NotInFibreError, ShapeError
from .exactalg import QMatrix, kernel, rank_of_rows, solve
from .poly import HomPoly, LinForm, det_poly_matrix, monomial_count, monomials
from .schemes import PointConfig, membership_conditions, require_generic


@dataclass(frozen=True)
class KroneckerModule:
    """n x (n-1) matrix of linear forms, stored row-major."""

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
                if not isinstance(e, LinForm):
                    raise ShapeError("entries must be linear forms")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[LinForm]]) -> "KroneckerModule":
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

    def entry(self, i: int, j: int) -> LinForm:
        return self.entries[i][j]

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.nrows))

    def with_column(self, j: int, col: Sequence[LinForm]) -> "KroneckerModule":
        if len(col) != self.nrows:
            raise ShapeError(f"column must have length {self.nrows}")
        rows = [list(r) for r in self.entries]
        for i in range(self.nrows):
            rows[i][j] = col[i]
        return KroneckerModule.from_rows(rows)


@dataclass(frozen=True)
class IdealResolution:
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
    membership conditions, which must have dimension n = d - 1; stage two
    solves for all linear syzygies among those generators, which must
    form an (n-1)-dimensional space.  Either failure raises
    DegenerateError.
    """
    require_generic(cfg)
    d = cfg.degree
    n = d - 1
    ker = kernel(QMatrix.from_rows(membership_conditions(cfg, d - 2)))
    if ker.cols != n:
        raise DegenerateError(
            f"degree-{d - 2} curves through the configuration form a space "
            f"of dimension {ker.cols}, expected {n}"
        )
    gens = [HomPoly.from_coeffs(d - 2, ker.col(j)) for j in range(n)]
    cols = []
    for g in gens:
        for v in range(3):
            cols.append((HomPoly.variable(v) * g).coeffs)
    system = QMatrix.from_rows(
        [[cols[c][r] for c in range(3 * n)] for r in range(monomial_count(d - 1))],
        cols=3 * n,
    )
    syz = kernel(system)
    if syz.cols != n - 1:
        raise DegenerateError(
            f"linear syzygies form a space of dimension {syz.cols}, "
            f"expected {n - 1}"
        )
    rows = []
    for i in range(n):
        row = []
        for j in range(n - 1):
            c = syz.col(j)
            row.append(LinForm(c[3 * i], c[3 * i + 1], c[3 * i + 2]))
        rows.append(row)
    return IdealResolution(KroneckerModule.from_rows(rows), tuple(gens))


def maximal_minors(phi: KroneckerModule) -> list:
    """Signed maximal minors m_i = (-1)^i det(phi with row i deleted)."""
    n = phi.nrows
    out = []
    for i in range(n):
        sub = [
            [phi.entry(r, c).to_hompoly() for c in range(n - 1)]
            for r in range(n)
            if r != i
        ]
        m = det_poly_matrix(sub, col_degrees=[1] * (n - 1))
        if i % 2 == 1:
            m = -m
        out.append(m)
    return out


def resolution_check(
    phi: KroneckerModule,
    generators: Optional[Sequence[HomPoly]] = None,
    minors: Optional[Sequence[HomPoly]] = None,
) -> bool:
    """Check the determinantal identities tying phi to its minors.

    Always checks that the row vector of signed maximal minors annihilates
    phi column by column.  When generators are supplied, also checks that
    every column of phi is a syzygy of them.
    """
    n = phi.nrows
    if minors is None:
        minors = maximal_minors(phi)
    deg = phi.curve_degree - 2
    for j in range(n - 1):
        acc = HomPoly.zero(deg + 1)
        for i in range(n):
            term = minors[i] * phi.entry(i, j).to_hompoly()
            acc = acc + term
        if not acc.is_zero():
            return False
    if generators is not None:
        if len(generators) != n:
            raise ShapeError(f"expected {n} generators, got {len(generators)}")
        for j in range(n - 1):
            acc = HomPoly.zero(deg + 1)
            for i in range(n):
                acc = acc + generators[i] * phi.entry(i, j).to_hompoly()
            if not acc.is_zero():
                return False
    return True


def injectivity_system(phi: KroneckerModule) -> QMatrix:
    """Linear system whose kernel is the space of linear column syzygies.

    Unknowns are the 3(n-1) coefficients of linear forms l_0, ..., l_{n-2};
    the equations say sum_j phi[i][j] l_j = 0 for every row i, expanded
    into the 6 quadratic monomial coordinates each.
    """
    n = phi.nrows
    quad_count = monomial_count(2)
    rows = []
    for i in range(n):
        cols = []
        for j in range(n - 1):
            e = phi.entry(i, j).to_hompoly()
            for v in range(3):
                cols.append((HomPoly.variable(v) * e).coeffs)
        for r in range(quad_count):
            rows.append([cols[c][r] for c in range(3 * (n - 1))])
    return QMatrix.from_rows(rows, cols=3 * (n - 1))


def injectivity_check(phi: KroneckerModule) -> bool:
    """Whether the columns admit no syzygy with linear-form coefficients.

    A nonzero solution of the injectivity system exhibits a kernel element
    of the sheaf map defined by phi, so the map fails to be injective;
    scalar dependencies among the columns are caught too, as their
    coordinate multiples.  True means no such syzygy exists.
    """
    return kernel(injectivity_system(phi)).cols == 0


def stability_sufficient(minors: Sequence[HomPoly]) -> bool:
    """Linear independence of a module's maximal minors as degree-(d-2) forms.

    Takes the list maximal_minors(phi) returns.  Independence rules out
    the degenerations that produce non-stable modules in this family;
    modules resolved from admissible point configurations pass.
    """
    return rank_of_rows([p.coeffs for p in minors]) == len(minors)


# ---------------------------------------------------------------------------
# Bordered matrices: curves as determinants


@dataclass(frozen=True)
class SheafMatrix:
    """Kronecker module bordered by a column of quadratic forms.

    The determinant of the square matrix [quad | phi] is a curve of
    degree d = n + 1 through the underlying configuration.
    """

    quad: tuple
    phi: KroneckerModule

    def __post_init__(self):
        if len(self.quad) != self.phi.nrows:
            raise ShapeError(
                f"quadratic column must have length {self.phi.nrows}"
            )
        for q in self.quad:
            if q.degree != 2:
                raise ShapeError("bordering column entries must be quadratic")

    def curve(self) -> HomPoly:
        return curve_from_pair(self.quad, self.phi)


def curve_from_pair(quad: Sequence[HomPoly], phi: KroneckerModule) -> HomPoly:
    """det [quad | phi], a degree-d form; DegenerateError if it vanishes."""
    n = phi.nrows
    if len(quad) != n:
        raise ShapeError(f"quadratic column must have length {n}")
    mat = [
        [quad[i]] + [phi.entry(i, j).to_hompoly() for j in range(n - 1)]
        for i in range(n)
    ]
    f = det_poly_matrix(mat, col_degrees=[2] + [1] * (n - 1))
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
    n = phi.nrows
    d = phi.curve_degree
    if f.degree != d:
        raise ShapeError(f"curve has degree {f.degree}, module expects {d}")
    minors = maximal_minors(phi)
    quad_monos = monomials(2)
    cols = []
    for m in minors:
        for t in quad_monos:
            cols.append((HomPoly.monomial(2, t) * m).coeffs)
    system = QMatrix.from_rows(
        [[cols[c][r] for c in range(6 * n)] for r in range(monomial_count(d))],
        cols=6 * n,
    )
    sol = solve(system, list(f.coeffs))
    if sol is None:
        raise NotInFibreError(
            "curve is not a quadratic combination of the maximal minors"
        )
    quad = []
    for i in range(n):
        coeffs = sol[6 * i : 6 * (i + 1)]
        quad.append(HomPoly.from_coeffs(2, coeffs))
    return SheafMatrix(tuple(quad), phi)
