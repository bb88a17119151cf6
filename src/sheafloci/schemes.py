"""Point schemes in the projective plane.

A configuration of total length l = (d-1)(d-2)/2 consists of simple
points and curvilinear fat points.  A fat point is given by a support
point, an invertible chart matrix moving the support to (1:0:0), local
data h(y) with h(0) = 0 and deg h < m, and the multiplicity m: in the
chart's affine coordinates around (1:0:0) the local ideal is
(x - h(y), y^m), where the local x is the x2-direction and the local y
the x1-direction.  With h = 0 and m = 2 this is exactly the planar
double point with ideal (x1^2, x2) in standard position.

Membership of a degree-k form in the ideal sheaf contributes one linear
condition (matrix row) per length unit: evaluation at a simple point;
for a fat point the coefficients of y^0, ..., y^{m-1} of the pulled-back
curve restricted to the parametrized branch x = h(y).  Every row is
built as a list of ints: a simple point is read through its integer
coordinates, a fat point's branch polynomials over their common
denominator.  Either is a positive rescaling of the rational row, which
changes no rank, kernel or reduced echelon form.  membership_conditions
returns the rows as built, a list of int lists.

The codimension assertions elsewhere in the package hold for every
curvilinear configuration, whatever its number of fat points and their
multiplicities.  Non-curvilinear fat points, such as the square of a
maximal ideal, are outside this data model, so the paper's claim is not
checked for them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import ConfigError, GenericityError, Record
from .exactalg import QMatrix, det as qdet, integer_row, inverse, kernel, rank_of_rows
from .poly import (
    HomPoly,
    monomials,
    powers,
    upoly_coeff,
    upoly_mul,
    upoly_trim,
)
from .rng import SplitMix64

_ZERO = Fraction(0)
_ONE = Fraction(1)


def expected_length(d: int) -> int:
    """Scheme length matching degree d: (d-1)(d-2)/2."""
    return (d - 1) * (d - 2) // 2


class SimplePoint(Record):
    """Point of the projective plane, stored as an exact representative.

    Equality and hashing go through the canonical primitive representative,
    so proportional coordinate vectors give equal points.
    """

    coords: tuple

    def __post_init__(self):
        if len(self.coords) != 3:
            raise ConfigError("a plane point needs three coordinates")
        if all(c == 0 for c in self.coords):
            raise ConfigError("(0:0:0) is not a projective point")

    @classmethod
    def of(cls, a, b, c) -> "SimplePoint":
        return cls((Fraction(a), Fraction(b), Fraction(c)))

    def canonical(self) -> tuple:
        """Primitive integer representative with positive leading entry."""
        return tuple(Fraction(v) for v in self._primitive)

    @cached_property
    def integer_coords(self) -> tuple:
        """The coordinates times the lcm of their denominators, as ints."""
        return tuple(integer_row(self.coords)[0])

    @cached_property
    def _primitive(self) -> tuple:
        """canonical() as plain ints, computed once per point."""
        ints = self.integer_coords
        g = gcd(*ints)
        if next(v for v in ints if v) < 0:
            g = -g
        return tuple(v // g for v in ints)

    def __eq__(self, other):
        if not isinstance(other, SimplePoint):
            return NotImplemented
        return self._primitive == other._primitive

    def __hash__(self):
        return hash(self._primitive)


def branch_polynomial(h: Sequence, mult: int) -> tuple:
    """h(y)'s coefficients from y^0 as Fractions, trailing zeros trimmed.

    Raises ConfigError unless h(0) = 0, so that the ideal (x - h(y), y^mult)
    is supported at the origin, and deg h < mult, so that h is reduced
    modulo y^mult.  FatPoint.of and localfree.FatIdealData.of both read
    their branch data through it.
    """
    h = tuple(Fraction(c) for c in h)
    while h and h[-1] == 0:
        h = h[:-1]
    if h and h[0] != 0:
        raise ConfigError("h(0) must vanish")
    if len(h) > mult:
        raise ConfigError(f"deg h = {len(h) - 1} must stay below the multiplicity {mult}")
    return h


class FatPoint(Record):
    """Curvilinear fat point: support, chart, branch data h, multiplicity.

    chart is a 3x3 invertible matrix with chart @ support proportional to
    (1,0,0); h is the univariate coefficient tuple of h(y) from y^0 up,
    with h(0) = 0 and deg h < mult (see branch_polynomial).
    """

    support: SimplePoint
    chart: QMatrix
    h: tuple
    mult: int

    def __post_init__(self):
        if self.mult < 2:
            raise ConfigError("fat point multiplicity must be at least 2")
        if self.chart.rows != 3 or self.chart.cols != 3:
            raise ConfigError("chart must be a 3x3 matrix")
        if qdet(self.chart) == 0:
            raise ConfigError("chart matrix must be invertible")
        image = self.chart.apply(self.support.coords)
        if image[1] != 0 or image[2] != 0 or image[0] == 0:
            raise ConfigError("chart must move the support to (1:0:0)")

    @classmethod
    def of(cls, support: SimplePoint, chart: QMatrix, h: Sequence, mult: int) -> "FatPoint":
        return cls(support, chart, branch_polynomial(h, mult), mult)

    @cached_property
    def frame(self) -> QMatrix:
        """chart^{-1}, inverted once per fat point: chart coordinates to plane ones."""
        return inverse(self.chart)

    def branch_coordinates(self) -> tuple:
        """Three univariate polynomials w(y) with w = chart^{-1} (1, y, h(y)).

        A form F contains the fat point iff F(w0(y), w1(y), w2(y)) is
        divisible by y^mult: this parametrizes the curvilinear branch in
        the original coordinates.
        """
        cinv = self.frame
        h = list(self.h)
        out = []
        for i in range(3):
            w = [cinv.get(i, 0), cinv.get(i, 1)]
            for k, c in enumerate(h):
                if c != 0:
                    while len(w) <= k:
                        w.append(_ZERO)
                    w[k] += cinv.get(i, 2) * c
            out.append(upoly_trim(w))
        return tuple(out)


class PointConfig(Record):
    """Length-validated configuration: simple points first, then fat points.

    Point ids are 1-based: id i is simple[i-1] for i <= len(simple), then the
    fat points follow in order.
    """

    degree: int
    simple: tuple
    fat: tuple

    def __post_init__(self):
        if self.degree < 4:
            raise ConfigError("degree must be at least 4")
        total = length_of(self.simple, self.fat)
        expected = expected_length(self.degree)
        if total != expected:
            raise ConfigError(
                f"configuration length {total} does not match the required "
                f"(d-1)(d-2)/2 = {expected} for degree {self.degree}"
            )
        supports = [p for p in self.simple] + [f.support for f in self.fat]
        for i in range(len(supports)):
            for j in range(i + 1, len(supports)):
                if supports[i] == supports[j]:
                    raise ConfigError(
                        f"supports of points {i + 1} and {j + 1} coincide"
                    )

    @classmethod
    def of(cls, degree: int, simple: Sequence[SimplePoint], fat: Sequence[FatPoint] = ()) -> "PointConfig":
        return cls(degree, tuple(simple), tuple(fat))

    @property
    def npoints(self) -> int:
        return len(self.simple) + len(self.fat)

    def point(self, point_id: int):
        """("simple", SimplePoint) or ("fat", FatPoint) for a 1-based id."""
        if not 1 <= point_id <= self.npoints:
            raise ConfigError(f"point id {point_id} out of range 1..{self.npoints}")
        if point_id <= len(self.simple):
            return ("simple", self.simple[point_id - 1])
        return ("fat", self.fat[point_id - 1 - len(self.simple)])

    def support_of(self, point_id: int) -> SimplePoint:
        kind, data = self.point(point_id)
        return data if kind == "simple" else data.support

    def stratum(self) -> str:
        """"generic" (all simple), "double" (one m=2 fat point), or "deep"."""
        if not self.fat:
            return "generic"
        if len(self.fat) == 1 and self.fat[0].mult == 2:
            return "double"
        return "deep"

    @cached_property
    def admissible(self) -> bool:
        """Whether no nonzero curve of degree d - 3 passes through the scheme.

        Ranked once per configuration: random_config accepts a candidate
        by it, and require_generic reads the same verdict.
        """
        return not_on_curve_of_degree(self, self.degree - 3)


def length_of(simple: Sequence, fat: Sequence) -> int:
    return len(simple) + sum(f.mult for f in fat)


def length(cfg: PointConfig) -> int:
    """Total length of the scheme; equals (d-1)(d-2)/2 by construction."""
    return length_of(cfg.simple, cfg.fat)


# ---------------------------------------------------------------------------
# Membership conditions


def simple_point_row(p: SimplePoint, k: int) -> list:
    """Evaluation of the degree-k monomials at p.integer_coords (one row)."""
    p0, p1, p2 = (powers(x, k) for x in p.integer_coords)
    return [p0[a] * p1[b] * p2[c] for (a, b, c) in monomials(k)]


def fat_point_rows(fp: FatPoint, k: int, orders: Optional[Sequence[int]] = None) -> list:
    """Rows of the y-order coefficient functionals along the fat point's branch.

    Row for order j sends a degree-k form F to the coefficient of y^j in
    F(w(y)) where w parametrizes the branch (see branch_coordinates).
    Defaults to orders 0..mult-1, the membership conditions.  w is
    first cleared over the common denominator of its three polynomials.
    """
    if orders is None:
        orders = range(fp.mult)
    orders = list(orders)
    w = fp.branch_coordinates()
    common = lcm(*(c.denominator for wi in w for c in wi))
    pw = []
    for wi in w:
        wi = [c.numerator * (common // c.denominator) for c in wi]
        levels = [[1]]
        for _ in range(k):
            levels.append(upoly_mul(levels[-1], wi))
        pw.append(levels)
    rows = [[] for _ in orders]
    for (a, b, c) in monomials(k):
        series = upoly_mul(upoly_mul(pw[0][a], pw[1][b]), pw[2][c])
        for slot, j in enumerate(orders):
            rows[slot].append(upoly_coeff(series, j))
    return rows


def membership_conditions(cfg: PointConfig, k: int) -> list:
    """One int row per length unit: the degree-k conditions for containing Z.

    A form f of degree k vanishes on the whole scheme (with
    multiplicities) iff every row annihilates its coefficient vector.
    """
    rows = [simple_point_row(p, k) for p in cfg.simple]
    for fp in cfg.fat:
        rows.extend(fat_point_rows(fp, k))
    return rows


def not_on_curve_of_degree(cfg: PointConfig, k: int) -> bool:
    """True iff the degree-k membership conditions are independent.

    rank = length.  For k = d-3 the condition matrix is square of size
    l = (d-1)(d-2)/2, and independence says exactly that no nonzero
    degree-(d-3) curve passes through the whole scheme.
    """
    return rank_of_rows(membership_conditions(cfg, k)) == length(cfg)


def low_degree_certificate(cfg: PointConfig, k: int) -> Optional[HomPoly]:
    """A nonzero degree-k form through the whole scheme, if one exists."""
    ker = kernel(QMatrix.from_rows(membership_conditions(cfg, k)))
    if not ker:
        return None
    return HomPoly.from_coeffs(k, ker[0])


def require_generic(cfg: PointConfig) -> None:
    """Raise GenericityError if a curve of degree d - 3 passes through Z.

    The error carries that curve as its certificate; the fibre and the
    Kronecker resolution are built only for configurations off such curves.
    The certified rank behind cfg.admissible decides; the kernel that
    gives the certificate is computed only when that rank falls short.
    """
    k = cfg.degree - 3
    if not cfg.admissible:
        raise GenericityError(
            f"configuration lies on a degree-{k} curve",
            certificate=low_degree_certificate(cfg, k),
        )


def collinear(p: SimplePoint, q: SimplePoint, r: SimplePoint) -> bool:
    """Whether three pairwise distinct points lie on a common line.

    Decided by the integer 3x3 determinant of the points' primitive
    representatives.
    """
    a, b, c = p._primitive, q._primitive, r._primitive
    if a == b or a == c or b == c:
        raise ConfigError("collinearity is only defined for distinct points")
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    ) == 0


# ---------------------------------------------------------------------------
# Seeded random configurations

COORD_BOUND = 20
MAX_REJECTIONS = 10**4
# the largest degree a configuration file or `random --degree` may ask
# for; README ("Input ceilings") gives the measurement behind it
MAX_DEGREE = 10


def _random_point(rng: SplitMix64) -> SimplePoint:
    while True:
        coords = tuple(Fraction(rng.randint(-COORD_BOUND, COORD_BOUND)) for _ in range(3))
        if any(c != 0 for c in coords):
            return SimplePoint(coords)


def _completion_matrix(p: SimplePoint) -> QMatrix:
    """Invertible matrix whose first column is p (canonical representative)."""
    v = p.canonical()
    k = next(i for i in range(3) if v[i] != 0)
    cols = [list(v)]
    for idx in ((k + 1) % 3, (k + 2) % 3):
        e = [_ZERO, _ZERO, _ZERO]
        e[idx] = _ONE
        cols.append(e)
    return QMatrix.from_rows([[cols[j][i] for j in range(3)] for i in range(3)])


def _random_fat_point(rng: SplitMix64, mult: int) -> FatPoint:
    """A fat point at a random support with h(y) = c1 y + ... + c_{m-1} y^{m-1}."""
    support = _random_point(rng)
    chart = inverse(_completion_matrix(support))
    h = [_ZERO] + [Fraction(rng.randint(-5, 5)) for _ in range(mult - 1)]
    return FatPoint.of(support, chart, h, mult)


# the multiplicities of the fat points random_config draws in each stratum
_STRATUM_FAT_MULTS = {"generic": (), "double": (2,)}


def random_config(d: int, seed: int, stratum: str = "generic") -> PointConfig:
    """Seeded random configuration of length (d-1)(d-2)/2.

    stratum "generic": all points simple.  stratum "double": one double
    point plus l-2 simple points.  The fat points are drawn first, then
    the simple points.  Coordinates are integers in [-20, 20] drawn from
    SplitMix64(seed); candidates are rejected until no degree-(d-3)
    curve passes through the scheme, with a hard cap of 10^4 rejections.
    """
    if d < 4:
        raise ConfigError("degree must be at least 4")
    if d > MAX_DEGREE:
        raise ConfigError(f"degree {d} is above the ceiling {MAX_DEGREE}")
    if stratum not in _STRATUM_FAT_MULTS:
        raise ConfigError(f"unknown stratum {stratum!r}")
    mults = _STRATUM_FAT_MULTS[stratum]
    rng = SplitMix64(seed)
    l = expected_length(d)
    for _ in range(MAX_REJECTIONS):
        try:
            fat = [_random_fat_point(rng, m) for m in mults]
            simple = [_random_point(rng) for _ in range(l - sum(mults))]
            cfg = PointConfig.of(d, simple, fat)
        except ConfigError:
            continue
        if cfg.admissible:
            return cfg
    raise GenericityError(
        f"no generic configuration found after {MAX_REJECTIONS} attempts "
        f"(degree {d}, seed {seed}, stratum {stratum})"
    )
