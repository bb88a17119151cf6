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
curve restricted to the parametrized branch x = h(y).

Multiplicities m >= 3 are accepted by the data model; the codimension
assertions elsewhere in the package apply only to the generic stratum
(all points simple) and the one-double-point stratum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Optional, Sequence

from .errors import ConfigError, GenericityError
from .exactalg import QMatrix, det as qdet, inverse, kernel, rank
from .poly import (
    HomPoly,
    monomial_count,
    monomials,
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


@dataclass(frozen=True)
class SimplePoint:
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
    def _primitive(self) -> tuple:
        """canonical() as plain ints, computed once per point."""
        denom_lcm = 1
        for c in self.coords:
            denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
        ints = [int(c * denom_lcm) for c in self.coords]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        ints = [v // g for v in ints]
        lead = next(v for v in ints if v != 0)
        if lead < 0:
            ints = [-v for v in ints]
        return tuple(ints)

    def __eq__(self, other):
        if not isinstance(other, SimplePoint):
            return NotImplemented
        return self._primitive == other._primitive

    def __hash__(self):
        return hash(self._primitive)


@dataclass(frozen=True)
class FatPoint:
    """Curvilinear fat point: support, chart, branch data h, multiplicity.

    chart is a 3x3 invertible matrix with chart @ support proportional to
    (1,0,0); h is the univariate coefficient tuple of h(y) from y^0 up,
    with h(0) = 0 and deg h < mult.
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
        h = self.h
        if h and h[0] != 0:
            raise ConfigError("h(0) must vanish")
        if len(h) > self.mult:
            raise ConfigError(
                f"deg h = {len(h) - 1} must stay below the multiplicity {self.mult}"
            )

    @classmethod
    def of(cls, support: SimplePoint, chart: QMatrix, h: Sequence, mult: int) -> "FatPoint":
        h = tuple(Fraction(c) for c in h)
        while h and h[-1] == 0:
            h = h[:-1]
        return cls(support, chart, h, mult)

    def branch_coordinates(self) -> tuple:
        """Three univariate polynomials w(y) with w = chart^{-1} (1, y, h(y)).

        A form F contains the fat point iff F(w0(y), w1(y), w2(y)) is
        divisible by y^mult: this parametrizes the curvilinear branch in
        the original coordinates.
        """
        cinv = inverse(self.chart)
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


@dataclass(frozen=True)
class PointConfig:
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


def length_of(simple: Sequence, fat: Sequence) -> int:
    return len(simple) + sum(f.mult for f in fat)


def length(cfg: PointConfig) -> int:
    """Total length of the scheme; equals (d-1)(d-2)/2 by construction."""
    return length_of(cfg.simple, cfg.fat)


# ---------------------------------------------------------------------------
# Membership conditions


def simple_point_row(p: SimplePoint, k: int) -> list:
    """Evaluation of the degree-k monomials at p (one matrix row)."""
    x0, x1, x2 = p.coords
    pw = [[_ONE], [_ONE], [_ONE]]
    for pw_i, x in zip(pw, (x0, x1, x2)):
        for _ in range(k):
            pw_i.append(pw_i[-1] * x)
    return [pw[0][a] * pw[1][b] * pw[2][c] for (a, b, c) in monomials(k)]


def fat_point_rows(fp: FatPoint, k: int, orders: Optional[Sequence[int]] = None) -> list:
    """Rows of the y-order coefficient functionals along the fat point's branch.

    Row for order j sends a degree-k form F to the coefficient of y^j in
    F(w(y)) where w parametrizes the branch (see branch_coordinates).
    Defaults to orders 0..mult-1, the membership conditions.
    """
    if orders is None:
        orders = range(fp.mult)
    orders = list(orders)
    w = fp.branch_coordinates()
    pw = []
    for i in range(3):
        levels = [[_ONE]]
        for _ in range(k):
            levels.append(upoly_mul(levels[-1], w[i]))
        pw.append(levels)
    rows = [[] for _ in orders]
    for (a, b, c) in monomials(k):
        series = upoly_mul(upoly_mul(pw[0][a], pw[1][b]), pw[2][c])
        for slot, j in enumerate(orders):
            rows[slot].append(upoly_coeff(series, j))
    return rows


def membership_conditions(cfg: PointConfig, k: int) -> QMatrix:
    """One row per length unit: the degree-k conditions for containing Z.

    A form f of degree k vanishes on the whole scheme (with
    multiplicities) iff this matrix annihilates its coefficient vector.
    """
    rows = [simple_point_row(p, k) for p in cfg.simple]
    for fp in cfg.fat:
        rows.extend(fat_point_rows(fp, k))
    return QMatrix.from_rows(rows, cols=monomial_count(k))


def not_on_curve_of_degree(cfg: PointConfig, k: int) -> bool:
    """True iff the degree-k membership conditions are independent.

    rank = length.  For k = d-3 the condition matrix is square of size
    l = (d-1)(d-2)/2, and independence says exactly that no nonzero
    degree-(d-3) curve passes through the whole scheme.
    """
    return rank(membership_conditions(cfg, k)) == length(cfg)


def low_degree_certificate(cfg: PointConfig, k: int) -> Optional[HomPoly]:
    """A nonzero degree-k form through the whole scheme, if one exists."""
    ker = kernel(membership_conditions(cfg, k))
    if ker.cols == 0:
        return None
    return HomPoly.from_coeffs(k, ker.col(0))


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
# Normalization (moving a chosen point to standard position)


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


def normalize(cfg: PointConfig, target_id: int) -> tuple:
    """Move the target point to (1:0:0); returns (new config, matrix g).

    g maps the new coordinates to the old ones: substituting g into a
    curve through the original scheme gives a curve through the
    normalized scheme.  For a fat target the chart becomes the identity,
    so the local ideal reads (x - h(y), y^m) literally in the affine
    chart x = x2/x0, y = x1/x0.
    """
    kind, data = cfg.point(target_id)
    if kind == "simple":
        if data.canonical() == (1, 0, 0):
            g = QMatrix.identity(3)
        else:
            g = _completion_matrix(data)
    else:
        g = inverse(data.chart)
    ginv = inverse(g)
    new_simple = [
        SimplePoint(tuple(ginv.apply(p.coords))) for p in cfg.simple
    ]
    new_simple = [SimplePoint(p.canonical()) for p in new_simple]
    new_fat = []
    for fp in cfg.fat:
        new_support = SimplePoint(tuple(ginv.apply(fp.support.coords)))
        new_fat.append(
            FatPoint.of(SimplePoint(new_support.canonical()), fp.chart @ g, fp.h, fp.mult)
        )
    return PointConfig.of(cfg.degree, new_simple, new_fat), g


# ---------------------------------------------------------------------------
# Seeded random configurations

COORD_BOUND = 20
MAX_REJECTIONS = 10**4


def _random_point(rng: SplitMix64) -> SimplePoint:
    while True:
        coords = tuple(Fraction(rng.randint(-COORD_BOUND, COORD_BOUND)) for _ in range(3))
        if any(c != 0 for c in coords):
            return SimplePoint(coords)


def _random_double_point(rng: SplitMix64) -> FatPoint:
    support = _random_point(rng)
    chart = inverse(_completion_matrix(support))
    slope = Fraction(rng.randint(-5, 5))
    return FatPoint.of(support, chart, (_ZERO, slope), 2)


def random_config(d: int, seed: int, stratum: str = "generic") -> PointConfig:
    """Seeded random configuration of length (d-1)(d-2)/2.

    stratum "generic": all points simple.  stratum "double": one double
    point plus l-2 simple points.  Coordinates are integers in
    [-20, 20] drawn from SplitMix64(seed); candidates are rejected until
    no degree-(d-3) curve passes through the scheme, with a hard cap of
    10^4 rejections.
    """
    if d < 4:
        raise ConfigError("degree must be at least 4")
    if stratum not in ("generic", "double"):
        raise ConfigError(f"unknown stratum {stratum!r}")
    rng = SplitMix64(seed)
    l = expected_length(d)
    for _ in range(MAX_REJECTIONS):
        try:
            if stratum == "generic":
                cfg = PointConfig.of(d, [_random_point(rng) for _ in range(l)])
            else:
                fp = _random_double_point(rng)
                cfg = PointConfig.of(
                    d, [_random_point(rng) for _ in range(l - 2)], [fp]
                )
        except ConfigError:
            continue
        if not_on_curve_of_degree(cfg, d - 3):
            return cfg
    raise GenericityError(
        f"no generic configuration found after {MAX_REJECTIONS} attempts "
        f"(degree {d}, seed {seed}, stratum {stratum})"
    )
