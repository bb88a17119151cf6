"""Local freeness of fat-point ideals on plane curve germs.

The objects are a curve germ f(x, y) with f(0,0) = 0 and the ideal
(x - h(y), y^m) of a curvilinear point of multiplicity m sitting on the
curve (membership: f(h(y), y) is divisible by y^m).  Writing
f(h(y), y) = -y^m u(y) defines the unit-or-not u; the ideal is free as
a module over the local ring of the curve exactly when the germ is
regular or u(0) is nonzero.

The criterion is checked independently by a jet computation: inside the
jet algebra k[x,y]/(m^N) the dimension of I/mI is found by exact
linear algebra, and Nakayama's lemma says the ideal is principal (hence
free, as it has finite colength) precisely when that dimension is one.
Each row of that computation is a monomial shift of a generator's
integer coefficients, so the oracle forms no polynomial product and
never substitutes x = h(y), the step the criterion itself takes.  One
elimination at N + 2, with columns ordered by degree, gives the
dimension at both N and N + 2.  The shifts of y^m go in first, then
those of x - h(y), then the curve's: the first two are rows of one and
of at most m + 1 entries that mostly take a free pivot at once, so each
dense curve row is cleared against sparse rows and the echelon does not
fill in.  The answer does not depend on that order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import ConfigError, DegenerateError, Record
from .exactalg import insert_row, integer_row
from .poly import HomPoly, LocalPoly, substitute_linear, upoly_coeff
from .rng import SplitMix64
from .schemes import FatPoint, branch_polynomial

_ZERO = Fraction(0)
_ONE = Fraction(1)


class CurveGerm(Record):
    """Nonzero local curve equation passing through the origin."""

    f: LocalPoly

    def __post_init__(self):
        if self.f.is_zero():
            raise ConfigError("a curve germ must be nonzero")
        if self.f.constant_term() != 0:
            raise ConfigError("the curve must pass through the origin")


class FatIdealData(Record):
    """Curvilinear ideal (x - h(y), y^m): h coefficients from y^0, h(0) = 0."""

    h: tuple
    mult: int

    def __post_init__(self):
        if self.mult < 1:
            raise ConfigError("multiplicity must be at least 1")

    @classmethod
    def of(cls, h: Sequence, mult: int) -> "FatIdealData":
        return cls(branch_polynomial(h, mult), mult)

    def x_minus_h(self) -> LocalPoly:
        d = {(1, 0): _ONE}
        for k, c in enumerate(self.h):
            if c != 0:
                d[(0, k)] = -c
        return LocalPoly.from_dict(d)

    def y_power(self) -> LocalPoly:
        return LocalPoly.from_dict({(0, self.mult): _ONE})


def is_regular(germ: CurveGerm) -> bool:
    """Whether the curve is smooth at the origin (nonzero linear part)."""
    return any(c != 0 for c in germ.f.linear_part())


@lru_cache(maxsize=1)
def branch_restriction(germ: CurveGerm, data: FatIdealData) -> tuple:
    """Coefficients of f(h(y), y) from y^0 up.

    Membership, u(0), the criterion and the oracle's membership gate all
    read this expansion; the latest result is cached, so one query
    expands f(h(y), y) once.
    """
    return tuple(germ.f.substitute_x(data.h))


def membership(germ: CurveGerm, data: FatIdealData) -> bool:
    """Whether the fat point scheme lies on the curve: y^m divides f(h(y), y)."""
    s = branch_restriction(germ, data)
    return all(upoly_coeff(s, j) == 0 for j in range(data.mult))


def u_at_zero(germ: CurveGerm, data: FatIdealData) -> Fraction:
    """u(0) from f(h(y), y) = -y^m u(y); requires membership.

    Membership and u(0) are read from one expansion of f(h(y), y).
    """
    s = branch_restriction(germ, data)
    if any(upoly_coeff(s, j) for j in range(data.mult)):
        raise ConfigError("the fat point scheme does not lie on the curve")
    return -upoly_coeff(s, data.mult)


def fat_ideal_free(germ: CurveGerm, data: FatIdealData) -> bool:
    """Whether the ideal of the fat point is free on the curve germ.

    Free exactly when the germ is regular or u(0) does not vanish; the
    scheme must lie on the curve, else u_at_zero raises ConfigError.
    """
    u0 = u_at_zero(germ, data)
    return is_regular(germ) or u0 != 0


# ---------------------------------------------------------------------------
# Independent jet-algebra check


def _nakayama_dims(germ: CurveGerm, data: FatIdealData, trunc: int) -> tuple:
    """dim I/mI inside k[x,y]/(m^trunc) and inside k[x,y]/(m^(trunc+2)).

    I is generated by x - h(y), y^m and the curve equation; mI replaces
    the two ideal generators by their products with the maximal ideal
    while keeping all multiples of the curve equation (the curve is zero
    on the germ's local ring, so its multiples cost nothing in I/mI).
    The dimension is the number of the two ideal generators that stay
    independent after eliminating everything in mI.

    Each row is a monomial multiple x^i y^j g of a generator g, that is
    g's integer coefficients moved to the shifted exponents and cut at
    total degree trunc + 2; g is cleared of denominators once.

    Both levels come from that one elimination.  The columns run by
    degree, so cutting at trunc projects onto the first trunc(trunc+1)/2
    columns, where the rows of order trunc or more vanish.  In an echelon
    the rows pivoting in that prefix span the projection, so an ideal
    generator counts at trunc too when its stored pivot lies there.

    The rows of mI go in as the shifts of y^m (single monomials), then
    those of x - h(y) (at most m + 1 terms), then the curve's; the two
    generators go in last.  Most of the sparse shifts take a free pivot
    at once, and each dense curve shift is then cleared against rows of
    one to m + 1 entries; with the curve's shifts first, every sparse
    shift would be reduced through dense rows that fill in at each step.
    The order cannot change the answer.  The columns holding pivots are
    the leading columns of the span of the rows stored, whatever their
    order.  A generator g not in a span V keeps the largest leading
    column of g - w over all w in V: reducing g to g - w with a leading
    column c outside the pivots of V, any other g - w - v leads at the
    leading column of v when that lies before c, and at c otherwise.  So
    the pair returned depends only on the span of the rows of mI (y^m
    is reduced against that span plus x - h(y), as before).
    """
    high = trunc + 2
    mons = [(i, t - i) for t in range(high) for i in range(t + 1)]
    index = {m: k for k, m in enumerate(mons)}

    def shifts(g: LocalPoly) -> list:
        """The rows x^i y^j g of order below trunc + 2, (i, j) in the order of mons."""
        exps, coeffs = zip(*g.coeffs)
        coeffs = integer_row(coeffs)[0]
        top = high - g.order()
        rows = []
        for i, j in mons:
            if i + j >= top:
                break
            row = [0] * len(mons)
            for (a, b), c in zip(exps, coeffs):
                k = index.get((a + i, b + j))
                if k is not None:
                    row[k] = c
            rows.append(row)
        return rows

    pivots = {}
    gens = [shifts(data.x_minus_h()), shifts(data.y_power())]
    for row in gens[1][1:] + gens[0][1:] + shifts(germ.f):
        insert_row(pivots, row)
    # rows[0] is the generator itself, if its order is below trunc + 2
    kept = [insert_row(pivots, rows[0]) for rows in gens if rows]
    kept = [k for k in kept if k is not None]
    prefix = trunc * (trunc + 1) // 2
    return sum(k[0] < prefix for k in kept), len(kept)


def default_truncation(germ: CurveGerm, data: FatIdealData) -> int:
    """The oracle's jet order when none is given: 2m + deg f + 2."""
    return 2 * data.mult + germ.f.total_degree() + 2


def jet_principality_oracle(
    germ: CurveGerm, data: FatIdealData, truncation: Optional[int] = None
) -> bool:
    """Principality of the fat-point ideal on the curve, via jets.

    Computes dim I/mI at the default truncation 2m + deg f + 2 and two
    orders higher, from one elimination; the two must agree, otherwise
    the truncation was too small and DegenerateError is raised.  By
    Nakayama the ideal is principal, equivalently free here, exactly when
    the dimension is 1.
    """
    if not membership(germ, data):
        raise ConfigError("the fat point scheme does not lie on the curve")
    if truncation is None:
        truncation = default_truncation(germ, data)
    dim, dim_again = _nakayama_dims(germ, data, truncation)
    if dim != dim_again:
        raise DegenerateError(
            f"jet dimension did not stabilize: {dim} at truncation "
            f"{truncation}, {dim_again} at {truncation + 2}"
        )
    return dim == 1


# ---------------------------------------------------------------------------
# Bridges and generators


def germ_at_fat_point(f: HomPoly, fp: FatPoint) -> tuple:
    """Local data of a projective curve at a fat point: (germ, ideal data).

    Pulls the curve through the fat point's chart and dehomogenizes, with
    local x the third chart coordinate and local y the second, matching
    the membership rows of the configuration machinery.
    """
    moved = substitute_linear(f, fp.frame)
    local = {}
    for (a, b, c), coeff in moved.terms():
        local[(c, b)] = local.get((c, b), _ZERO) + coeff
    germ = CurveGerm(LocalPoly.from_dict(local))
    return germ, FatIdealData.of(fp.h, fp.mult)


def random_membership_germ(
    rng: SplitMix64,
    mult: int,
    factor_degree: int = 2,
) -> tuple:
    """Seeded germ containing a seeded fat point scheme: (germ, ideal data).

    Built as A (x - h(y)) + B y^m so membership holds by construction.
    Constant terms of A and B are drawn with zeros included, so the
    regular and degenerate branches of the freeness criterion both occur.
    """

    def local_below(deg: int) -> LocalPoly:
        d = {}
        for t in range(deg + 1):
            for i in range(t + 1):
                c = Fraction(rng.randint(-4, 4))
                if c != 0:
                    d[(i, t - i)] = c
        return LocalPoly.from_dict(d)

    h = [_ZERO] + [Fraction(rng.randint(-3, 3)) for _ in range(mult - 1)]
    data = FatIdealData.of(h, mult)
    while True:
        a = local_below(factor_degree)
        b = local_below(factor_degree)
        f = a * data.x_minus_h() + b * data.y_power()
        if f.is_zero():
            continue
        return CurveGerm(f), data
