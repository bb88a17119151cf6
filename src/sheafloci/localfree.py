"""Local freeness of fat-point ideals on plane curve germs.

The objects are a curve germ f(x, y) with f(0,0) = 0 and the ideal
(x - h(y), y^m) of a curvilinear point of multiplicity m sitting on the
curve (membership: f(h(y), y) is divisible by y^m).  Writing
f(h(y), y) = -y^m u(y) defines the unit-or-not u; the ideal is free as
a module over the local ring of the curve exactly when the germ is
regular or u(0) is nonzero.

The criterion is checked independently by a jet computation: inside the
jet algebra k[x,y]/(m^(m+1)) the dimension of I/mI is found by exact
linear algebra, and Nakayama's lemma says the ideal is principal (hence
free, as it has finite colength) precisely when that dimension is one.
The order m + 1 is read off the input and is exact for every germ (see
_nakayama_dim).  Each row of that computation is a monomial shift of a
generator's integer coefficients, so the oracle forms no polynomial
product and never substitutes x = h(y), the step the criterion itself
takes.  The shifts of x - h(y), rows of at most m + 1 entries, go in
before the curve's: they mostly take a free pivot at once, so each
dense curve row is cleared against sparse rows and the echelon does not
fill in.  The answer does not depend on that order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import ConfigError, Record
from .exactalg import insert_row, integer_row
from .poly import HomPoly, LocalPoly, substitute_linear, upoly_coeff
from .rng import SplitMix64
from .schemes import CurvilinearPoint, branch_polynomial

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


def _nakayama_dim(germ: CurveGerm, data: FatIdealData) -> int:
    """dim I/(mI + (f)) inside k[x,y]/(m^(m+1)), where it is exact.

    I is generated by x - h(y), y^m and the curve equation f; mI replaces
    the two ideal generators by their products with the maximal ideal
    while keeping all multiples of f (the curve is zero on the germ's
    local ring, so its multiples cost nothing in I/mI).  The dimension is
    the number of the two ideal generators that stay independent after
    eliminating everything in mI.

    Cutting at order m + 1 loses nothing.  Modulo J = (x - h(y), y^m)
    x is congruent to h(y), and h(0) = 0, so a monomial x^a y^b with
    a + b = m is congruent to h(y)^a y^b, of y-order at least m, which
    lies in J.  So m^m lies in J, and m^(m+1) in mJ, inside mI + (f):
    the quotient is the same in k[x,y] and in k[x,y]/(m^(m+1)), and so
    at every higher order.  Order m is not enough: for the node x*y
    and the double point only x - h(y) = x survives below degree 2, so
    the count there is 1, not 2.

    Each row is a monomial multiple x^i y^j g of a generator g, that is
    g's integer coefficients moved to the shifted exponents and cut at
    total degree m + 1; g is cleared of denominators once.

    The multiples of y^m in mI have order m + 1 or more and vanish, so
    the rows of mI are the shifts of x - h(y) (at most m + 1 terms),
    then the curve's; the two generators go in last.  Most of the sparse
    shifts take a free pivot at once, and each dense curve shift is then
    cleared against them; with the curve's shifts first, every sparse
    shift would be reduced through dense rows that fill in at each step.
    The order cannot change the answer: the rank of the generators
    modulo the span of the rows of mI depends on that span alone.
    """
    high = data.mult + 1
    mons = [(i, t - i) for t in range(high) for i in range(t + 1)]
    index = {m: k for k, m in enumerate(mons)}

    def shifts(g: LocalPoly) -> list:
        """The rows x^i y^j g of order below m + 1, (i, j) in the order of mons."""
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
    x_minus_h = shifts(data.x_minus_h())
    for row in x_minus_h[1:] + shifts(germ.f):
        insert_row(pivots, row)
    # the first shift is the generator itself; y^m has order m, below m + 1
    gens = (x_minus_h[0], shifts(data.y_power())[0])
    return sum(insert_row(pivots, row) is not None for row in gens)


def jet_principality_oracle(germ: CurveGerm, data: FatIdealData) -> bool:
    """Principality of the fat-point ideal on the curve, via jets.

    Computes dim I/mI in k[x,y]/(m^(m+1)), where cutting the jets loses
    nothing (see _nakayama_dim).  By Nakayama the ideal is principal,
    equivalently free here, exactly when the dimension is 1.
    """
    if not membership(germ, data):
        raise ConfigError("the fat point scheme does not lie on the curve")
    return _nakayama_dim(germ, data) == 1


# ---------------------------------------------------------------------------
# Bridges and generators


def germ_at_fat_point(f: HomPoly, fp: CurvilinearPoint) -> tuple:
    """Local data of a projective curve at a point, fat or simple: (germ, ideal data).

    Pulls the curve through the point's frame and dehomogenizes, with
    local x the third frame coordinate and local y the second, matching
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
