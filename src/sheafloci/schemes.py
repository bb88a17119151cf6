"""Point schemes in the projective plane.

A configuration of total length l = (d-1)(d-2)/2 consists of simple
points and curvilinear fat points, each read as one CurvilinearPoint: a
frame, an invertible matrix sending (1:0:0) to the support, branch data
h(y) with h(0) = 0 and deg h < m, and the multiplicity m.  In the
frame's affine coordinates around (1:0:0), local y along its second
column and local x along its third, the local ideal is (x - h(y), y^m).
A fat point stores its frame: the identity frame, h = 0 and m = 2 give
the double point (x1^2, x2) at (1:0:0).  A simple point is m = 1 and
h = 0 in an integer frame.

A degree-k form F contains the point iff y^m divides F(w(y)), w(y) =
frame (1, y, h(y)) the branch, so membership gives one row per length
unit, the coefficients of y^0 .. y^(m-1); branch_rows builds them and
every other row at a point.  Rows are int lists, w cleared over one
denominator: a nonzero rescaling of the rational row, which changes no
rank, kernel or reduced echelon form.

The codimension assertions elsewhere in the package hold for every
curvilinear configuration.  Non-curvilinear fat points, such as the
square of a maximal ideal, are outside this data model, so the paper's
claim is not checked for them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, repeat
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .errors import ConfigError, GenericityError, Record
from .exactalg import QMatrix, det as qdet, integer_row, kernel, rank_of_rows
from .poly import HomPoly, monomials, powers, upoly_add, upoly_coeff, upoly_mul
from .rng import SplitMix64

_ZERO = Fraction(0)
# e_0, e_1, e_2, the frame columns of a simple point after the first
_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def expected_length(d: int) -> int:
    """Scheme length matching degree d: (d-1)(d-2)/2."""
    return (d - 1) * (d - 2) // 2


class CurvilinearPoint(Record):
    """A point as support, frame, branch data h and multiplicity m (module docstring)."""

    @cached_property
    def branch(self) -> tuple:
        """w(y) = frame (1, y, h(y)): three int polynomials over one denominator."""
        f = self.frame
        w = [
            upoly_add([f.get(i, 0), f.get(i, 1)], [f.get(i, 2) * c for c in self.h])
            for i in range(3)
        ]
        common = lcm(*(c.denominator for wi in w for c in wi))
        return tuple([c.numerator * (common // c.denominator) for c in wi] for wi in w)

    @cached_property
    def axes(self) -> tuple:
        """(n, s, t): the frame's third column as ints, w(0) and w'(0), a basis.

        s and t, the branch's point and tangent, are the frame's first
        column and its second plus h_1 times its third, scaled alike.
        """
        n = integer_row([self.frame.get(i, 2) for i in range(3)])[0]
        s, t = ([upoly_coeff(wi, j) for wi in self.branch] for j in (0, 1))
        return n, s, t


class SimplePoint(CurvilinearPoint):
    """Point of the projective plane, stored as an exact representative.

    Equality and hashing go through the primitive representative, so
    proportional coordinate vectors give equal points.  As a curvilinear
    point it is its own support, with m = 1, h = 0 and an integer frame.
    """

    coords: tuple
    h = ()
    mult = 1

    def __post_init__(self):
        if len(self.coords) != 3:
            raise ConfigError("a plane point needs three coordinates")
        if all(c == 0 for c in self.coords):
            raise ConfigError("(0:0:0) is not a projective point")

    @classmethod
    def of(cls, a, b, c) -> "SimplePoint":
        return cls((Fraction(a), Fraction(b), Fraction(c)))

    @cached_property
    def primitive(self) -> tuple:
        """Primitive integer representative with positive leading entry.

        Computed once per point; equality, hashing and every row built
        at the point read it.
        """
        ints = integer_row(self.coords)[0]
        g = gcd(*ints)
        if next(v for v in ints if v) < 0:
            g = -g
        return tuple(v // g for v in ints)

    @property
    def support(self) -> "SimplePoint":
        return self

    @cached_property
    def axes(self) -> tuple:
        """(e_{k+2}, p.primitive, e_{k+1}), p_k != 0 first: the frame's columns, as ints."""
        v = self.primitive
        k = 0 if v[0] else 1 if v[1] else 2
        return _UNITS[k - 1], v, _UNITS[k - 2]

    @cached_property
    def frame(self) -> QMatrix:
        n, s, t = self.axes
        return QMatrix.from_rows(zip(s, t, n))

    def __eq__(self, other):
        if not isinstance(other, SimplePoint):
            return NotImplemented
        return self.primitive == other.primitive

    def __hash__(self):
        return hash(self.primitive)


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


class FatPoint(CurvilinearPoint):
    """Curvilinear fat point: support, frame, branch data h, multiplicity.

    frame is a 3x3 invertible matrix sending (1:0:0) to the support, so
    its inverse, the point's chart, moves the support to (1:0:0).  h is
    the univariate coefficient tuple of h(y) from y^0 up, with h(0) = 0
    and deg h < mult (see branch_polynomial).
    """

    support: SimplePoint
    frame: QMatrix
    h: tuple
    mult: int

    def __post_init__(self):
        if self.mult < 2:
            raise ConfigError("fat point multiplicity must be at least 2")
        if self.frame.rows != 3 or self.frame.cols != 3:
            raise ConfigError("frame must be a 3x3 matrix")
        if qdet(self.frame) == 0:
            raise ConfigError("frame matrix must be invertible")
        if SimplePoint(tuple(self.frame.get(i, 0) for i in range(3))) != self.support:
            raise ConfigError("chart must move the support to (1:0:0)")

    @classmethod
    def of(cls, support: SimplePoint, frame: QMatrix, h: Sequence, mult: int) -> "FatPoint":
        return cls(support, frame, branch_polynomial(h, mult), mult)


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
        total = sum(p.mult for p in self.points)
        expected = expected_length(self.degree)
        if total != expected:
            raise ConfigError(
                f"configuration length {total} does not match the required "
                f"(d-1)(d-2)/2 = {expected} for degree {self.degree}"
            )
        supports = [p.support for p in self.points]
        for (i, p), (j, q) in combinations(enumerate(supports, 1), 2):
            if p == q:
                raise ConfigError(f"supports of points {i} and {j} coincide")

    @classmethod
    def of(cls, degree: int, simple: Sequence[SimplePoint], fat: Sequence[FatPoint] = ()) -> "PointConfig":
        return cls(degree, tuple(simple), tuple(fat))

    @cached_property
    def points(self) -> tuple:
        """Every point in id order, simple then fat."""
        return self.simple + self.fat

    @property
    def npoints(self) -> int:
        return len(self.simple) + len(self.fat)

    def point(self, point_id: int):
        """("simple", SimplePoint) or ("fat", FatPoint) for a 1-based id."""
        if not 1 <= point_id <= self.npoints:
            raise ConfigError(f"point id {point_id} out of range 1..{self.npoints}")
        return ("simple" if point_id <= len(self.simple) else "fat", self.points[point_id - 1])

    def support_of(self, point_id: int) -> SimplePoint:
        return self.point(point_id)[1].support

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


# ---------------------------------------------------------------------------
# Membership conditions


def branch_rows(
    pt: CurvilinearPoint, k: int, orders: Sequence[int], directions: Sequence = ()
) -> list:
    """Rows on degree-k forms F: v . grad F(s) per direction v, then [y^j] F(w(y)) per order j.

    With w the point's branch and (n, s, t) its axes, order 0 is
    evaluation at s = w(0) and order 1, by the chain rule, the direction
    t = w'(0).  Each partial derivative the directions need is read once
    off s's powers.  Only orders 2 and up expand the series of F(w(y)).
    """
    _n, s, t = pt.axes
    pw = p0, p1, p2 = powers(s[0], k), powers(s[1], k), powers(s[2], k)
    mons = monomials(k)
    partials = {}
    rows = []
    for v in (*directions, t) if 1 in orders else directions:
        terms = []
        for i, c in enumerate(v):
            if c:
                if i not in partials:
                    # d/dx_i replaces x_i^n by n x_i^(n-1)
                    q = list(pw)
                    q[i] = [0, *map(mul, range(1, k + 1), pw[i])]
                    q0, q1, q2 = q
                    partials[i] = [q0[a] * q1[b] * q2[e] for a, b, e in mons]
                terms.append((c, partials[i]))
        cs, gs = zip(*terms)
        rows.append(gs[0] if cs == (1,) else [sum(map(mul, cs, col)) for col in zip(*gs)])
    tangent = rows.pop() if 1 in orders else None
    series = None
    for j in orders:
        if j == 0:
            rows.append([p0[a] * p1[b] * p2[c] for a, b, c in mons])
        elif j == 1:
            rows.append(tangent)
        else:
            series = series or _series_rows(pt.branch, k, [i for i in orders if i > 1])
            rows.append(series[j])
    return rows


def _series_rows(w: tuple, k: int, orders: Sequence[int]) -> dict:
    """Order j to the row sending a degree-k form F to [y^j] F(w(y)), j in orders."""
    pw = [list(accumulate(repeat(wi, k), upoly_mul, initial=[1])) for wi in w]
    rows = {j: [] for j in orders}
    for (a, b, c) in monomials(k):
        series = upoly_mul(upoly_mul(pw[0][a], pw[1][b]), pw[2][c])
        for j, row in rows.items():
            row.append(upoly_coeff(series, j))
    return rows


def membership_conditions(cfg: PointConfig, k: int) -> list:
    """One int row per length unit: the degree-k conditions for containing Z.

    A degree-k form vanishes on the scheme iff every row annihilates its
    coefficients: at each point, its branch rows of orders 0 .. m - 1.
    """
    return [row for pt in cfg.points for row in branch_rows(pt, k, range(pt.mult))]


def not_on_curve_of_degree(cfg: PointConfig, k: int) -> bool:
    """True iff the degree-k membership conditions are independent.

    Their rank equals their count, one row per length unit.  For k = d-3
    the condition matrix is square of size l = (d-1)(d-2)/2, and
    independence says exactly that no nonzero degree-(d-3) curve passes
    through the whole scheme.
    """
    rows = membership_conditions(cfg, k)
    return rank_of_rows(rows) == len(rows)


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


def _random_fat_point(rng: SplitMix64, mult: int) -> FatPoint:
    """A fat point at a random support with h(y) = c1 y + ... + c_{m-1} y^{m-1}."""
    support = _random_point(rng)
    h = [_ZERO] + [Fraction(rng.randint(-5, 5)) for _ in range(mult - 1)]
    return FatPoint.of(support, support.frame, h, mult)


# the multiplicities of the fat points random_config draws in each stratum
_STRATUM_FAT_MULTS = {"generic": (), "double": (2,)}


def _draw_config(d: int, seed: int, mults: Sequence[int]) -> PointConfig:
    """The first admissible configuration drawn from SplitMix64(seed).

    Each candidate has one fat point per entry of mults, drawn first,
    then simple points up to the length (d-1)(d-2)/2.  A candidate is
    rejected until no degree-(d-3) curve passes through the scheme, with
    a hard cap of 10^4 rejections.
    """
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
        f"(degree {d}, seed {seed}, fat multiplicities {tuple(mults)})"
    )


def random_config(d: int, seed: int, stratum: str = "generic") -> PointConfig:
    """Seeded random configuration of length (d-1)(d-2)/2.

    stratum "generic": all points simple.  stratum "double": one double
    point plus l-2 simple points.  Coordinates are integers in [-20, 20]
    drawn by _draw_config.  A seed outside [0, 2^64), which SplitMix64
    would alias, is a ConfigError.
    """
    if d < 4:
        raise ConfigError("degree must be at least 4")
    if d > MAX_DEGREE:
        raise ConfigError(f"degree {d} is above the ceiling {MAX_DEGREE}")
    if stratum not in _STRATUM_FAT_MULTS:
        raise ConfigError(f"unknown stratum {stratum!r}")
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"seed {seed} is outside 0..2^64 - 1")
    return _draw_config(d, seed, _STRATUM_FAT_MULTS[stratum])
