"""Polynomials: homogeneous ternary forms and plane germs.

Monomial order.  The degree-d monomials in x0, x1, x2 are ordered
lexicographically with the exponent of x0 decreasing first and the
exponent of x1 decreasing next:

    x0^d, x0^{d-1} x1, x0^{d-1} x2, x0^{d-2} x1^2, x0^{d-2} x1 x2, ...

Every coefficient vector in the package is indexed by this order; there
are C(d+2, 2) monomials of degree d.

Text grammar (both variable families).  Terms are separated by '+' and
'-'; a term is an optional rational coefficient ("3", "3/2") joined by
'*' to variable powers "x0^2", "x1", "x2^3" (homogeneous) or "x^2", "y"
(local germs).  Whitespace is insignificant.  Canonical printing emits
terms in the fixed monomial order, e.g. "x0^2*x1 - 3/2*x2^3".

Determinants of matrices of forms: column_minors gives every maximal
minor from one expansion; det_poly_matrix is its square case.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
import re
from typing import Optional, Sequence

from .errors import ParseError, Record, ShapeError
from .exactalg import QMatrix, det as qdet

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def monomials(d: int) -> tuple:
    """Exponent triples of degree d in the package's monomial order."""
    if d < 0:
        raise ValueError("negative degree")
    out = []
    for e0 in range(d, -1, -1):
        for e1 in range(d - e0, -1, -1):
            out.append((e0, e1, d - e0 - e1))
    return tuple(out)


def monomial_count(d: int) -> int:
    return (d + 1) * (d + 2) // 2


def monomial_index(d: int, exp: Sequence[int]) -> int:
    """Index of the exponent triple within monomials(d)."""
    a, b, c = exp
    if a < 0 or b < 0 or c < 0 or a + b + c != d:
        raise ValueError(f"{exp!r} is not a degree-{d} exponent triple")
    t = d - a
    return t * (t + 1) // 2 + (t - b)


# ---------------------------------------------------------------------------
# Homogeneous ternary forms


class HomPoly(Record):
    """Homogeneous polynomial in x0, x1, x2 with exact rational coefficients.

    Immutable; coeffs has length C(degree+2, 2) and is indexed by the
    global monomial order.  The zero polynomial still carries its degree.
    """

    degree: int
    coeffs: tuple

    # written out rather than Record's generic __init__: every polynomial
    # operation builds a HomPoly
    def __init__(self, degree: int, coeffs: tuple):
        if degree < 0:
            raise ValueError("negative degree")
        if len(coeffs) != monomial_count(degree):
            raise ValueError(
                f"coefficient vector of length {len(coeffs)} does not "
                f"match degree {degree}"
            )
        d = self.__dict__
        d["degree"] = degree
        d["coeffs"] = coeffs

    @classmethod
    def zero(cls, degree: int) -> "HomPoly":
        return cls(degree, (_ZERO,) * monomial_count(degree))

    @classmethod
    def one(cls) -> "HomPoly":
        return cls(0, (_ONE,))

    @classmethod
    def from_coeffs(cls, degree: int, coeffs: Sequence) -> "HomPoly":
        return cls(degree, tuple(Fraction(c) for c in coeffs))

    @classmethod
    def monomial(cls, degree: int, exp: Sequence[int], coeff=1) -> "HomPoly":
        v = [_ZERO] * monomial_count(degree)
        v[monomial_index(degree, exp)] = Fraction(coeff)
        return cls(degree, tuple(v))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def terms(self):
        """(exponent triple, coefficient) pairs of the nonzero terms."""
        for exp, c in zip(monomials(self.degree), self.coeffs):
            if c != 0:
                yield exp, c

    def __add__(self, other: "HomPoly") -> "HomPoly":
        if not isinstance(other, HomPoly):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        return HomPoly(self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        if not isinstance(other, HomPoly):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("cannot subtract forms of different degrees")
        return HomPoly(self.degree, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "HomPoly":
        return HomPoly(self.degree, tuple(-a for a in self.coeffs))

    def scale(self, factor) -> "HomPoly":
        f = Fraction(factor)
        return HomPoly(self.degree, tuple(f * a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, HomPoly):
            d = self.degree + other.degree
            out = [_ZERO] * monomial_count(d)
            for (a1, b1, c1), k1 in self.terms():
                for (a2, b2, c2), k2 in other.terms():
                    out[monomial_index(d, (a1 + a2, b1 + b2, c1 + c2))] += k1 * k2
            return HomPoly(d, tuple(out))
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        return _format_terms(
            [(exp, c) for exp, c in zip(monomials(self.degree), self.coeffs) if c != 0],
            ("x0", "x1", "x2"),
        )


def powers(x, upto: int) -> list:
    """[1, x, x^2, ..., x^upto]; ints stay ints, Fractions stay Fractions."""
    out = [1]
    p = 1
    for _ in range(upto):
        p *= x
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# Determinants of polynomial matrices


def column_minors(mat: Sequence[Sequence[HomPoly]]) -> dict:
    """The maximal minors of an m x k matrix of forms, m >= k, by row bit mask.

    D(S) = det(rows S, first |S| columns) is expanded along column
    j = |S|, memoized on row sets: D(S + {r}) collects
    (-1)^(p+j) * mat[r][j] * D(S), p the number of rows of S above r.
    A column must not mix degrees (ShapeError); a vanishing minor is the
    zero form of the summed column degrees.
    """
    nrows, ncols = len(mat), len(mat[0])
    degree = 0
    for j in range(ncols):
        seen = {row[j].degree for row in mat}
        if len(seen) != 1:
            raise ShapeError(f"column {j} mixes entries of degrees {sorted(seen)}")
        degree += seen.pop()
    level = {0: HomPoly.one()}
    for j in range(ncols):
        nxt = {}
        for mask, sub in level.items():
            signed = (sub, -sub)
            p = j
            for r in range(nrows):
                if mask >> r & 1:
                    p += 1
                elif not mat[r][j].is_zero():
                    term = mat[r][j] * signed[p & 1]
                    key = mask | 1 << r
                    nxt[key] = nxt[key] + term if key in nxt else term
        level = {mask: d for mask, d in nxt.items() if not d.is_zero()}
    zero = HomPoly.zero(degree)
    masks = (sum(1 << r for r in rows) for rows in combinations(range(nrows), ncols))
    return {mask: level.get(mask, zero) for mask in masks}


def det_poly_matrix(mat: Sequence[Sequence[HomPoly]]) -> HomPoly:
    """Determinant of a square matrix of forms, by column_minors."""
    n = len(mat)
    if n == 0 or any(len(r) != n for r in mat):
        raise ShapeError("determinant needs a nonempty square matrix")
    (result,) = column_minors(mat).values()
    return result


# ---------------------------------------------------------------------------
# Linear substitution (right group action)


def substitute_linear(p: HomPoly, g: QMatrix) -> HomPoly:
    """The form v -> p(g*v); an invertible 3x3 substitution.

    This is a right action: for the matrix product gh,
    substitute_linear(p, gh) equals substitute_linear(substitute_linear(p, g), h).
    """
    if g.rows != 3 or g.cols != 3:
        raise ValueError("substitution matrix must be 3x3")
    if qdet(g) == 0:
        raise ValueError("singular substitution matrix")
    d = p.degree
    lin = [HomPoly(1, (g.get(i, 0), g.get(i, 1), g.get(i, 2))) for i in range(3)]
    pw = [_hompoly_powers(lin[i], d) for i in range(3)]
    acc = HomPoly.zero(d)
    for (a, b, c), k in p.terms():
        term = pw[0][a] * pw[1][b]
        term = term * pw[2][c]
        acc = acc + term.scale(k)
    return acc


def _hompoly_powers(p: HomPoly, upto: int) -> list:
    out = [HomPoly.one()]
    for _ in range(upto):
        out.append(out[-1] * p)
    return out


# ---------------------------------------------------------------------------
# Local (affine) polynomials in x, y


class LocalPoly(Record):
    """Polynomial in affine variables x, y; sparse, exact, immutable.

    ``coeffs`` is a tuple of ((x_exp, y_exp), coefficient) pairs, sorted
    by (total degree, descending x exponent), zeros dropped.
    """

    coeffs: tuple

    # written out rather than Record's generic __init__: every polynomial
    # operation builds a LocalPoly
    def __init__(self, coeffs: tuple):
        self.__dict__["coeffs"] = coeffs

    @classmethod
    def from_dict(cls, d: dict) -> "LocalPoly":
        items = [(k, Fraction(v)) for k, v in d.items() if v != 0]
        items.sort(key=lambda kv: (kv[0][0] + kv[0][1], -kv[0][0]))
        return cls(tuple(items))

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.as_dict().get((i, j), _ZERO)

    def total_degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(i + j for (i, j), _ in self.coeffs)

    def order(self) -> int:
        """Minimal total degree of a nonzero term (-1 for the zero poly)."""
        if not self.coeffs:
            return -1
        return min(i + j for (i, j), _ in self.coeffs)

    def constant_term(self) -> Fraction:
        return self.coefficient(0, 0)

    def linear_part(self) -> tuple:
        """Coefficients (on x, on y) of the degree-1 part."""
        return (self.coefficient(1, 0), self.coefficient(0, 1))

    def __add__(self, other: "LocalPoly") -> "LocalPoly":
        if not isinstance(other, LocalPoly):
            return NotImplemented
        d = self.as_dict()
        for k, v in other.coeffs:
            d[k] = d.get(k, _ZERO) + v
        return LocalPoly.from_dict(d)

    def __sub__(self, other: "LocalPoly") -> "LocalPoly":
        if not isinstance(other, LocalPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LocalPoly":
        return LocalPoly(tuple((k, -v) for k, v in self.coeffs))

    def __mul__(self, other: "LocalPoly") -> "LocalPoly":
        if not isinstance(other, LocalPoly):
            return NotImplemented
        d = {}
        for (i1, j1), v1 in self.coeffs:
            for (i2, j2), v2 in other.coeffs:
                k = (i1 + i2, j1 + j2)
                d[k] = d.get(k, _ZERO) + v1 * v2
        return LocalPoly.from_dict(d)

    def substitute_x(self, h: Sequence) -> list:
        """Univariate coefficient list of f(h(y), y), h given by y-coefficients."""
        h = [Fraction(c) for c in h]
        hpows = [[_ONE]]
        out: list = []
        for (i, j), v in self.coeffs:
            while len(hpows) <= i:
                hpows.append(upoly_mul(hpows[-1], h))
            term = [v * c for c in hpows[i]]
            out = upoly_add(out, [_ZERO] * j + term)
        return upoly_trim(out)

    def __str__(self) -> str:
        return _format_terms(
            [((i, j), v) for (i, j), v in self.coeffs],
            ("x", "y"),
        )


# ---------------------------------------------------------------------------
# Univariate coefficient-list helpers (dense lists, low first; integer
# lists stay integer)


def upoly_trim(a: Sequence) -> list:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def upoly_add(a: Sequence, b: Sequence) -> list:
    if len(a) < len(b):
        a, b = b, a
    return upoly_trim([va + vb for va, vb in zip(a, b)] + list(a[len(b):]))


def upoly_mul(a: Sequence, b: Sequence) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, va in enumerate(a):
        if va == 0:
            continue
        for j, vb in enumerate(b):
            out[i + j] += va * vb
    return upoly_trim(out)


def upoly_coeff(a: Sequence, k: int):
    return a[k] if k < len(a) else 0


# ---------------------------------------------------------------------------
# Parsing and printing

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<var>x[012]|x|y)
  | (?P<caret>\^)
  | (?P<star>\*)
  | (?P<plus>\+)
  | (?P<minus>-)
    """,
    re.VERBOSE,
)

_HOM_VARS = {"x0": 0, "x1": 1, "x2": 2}
_LOCAL_VARS = {"x": 0, "y": 1}


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}", position=pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    return tokens


def _integer(digits: str, pos: int) -> int:
    """int(digits), or ParseError past Python's int conversion digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"number of {len(digits)} digits at position {pos} is too long to read",
            position=pos,
        ) from None


def _parse_terms(text: str) -> list:
    """List of (coefficient, {var_name: exponent}) from the shared grammar."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text", position=0)
    terms = []
    i = 0
    n = len(tokens)
    first = True
    while i < n:
        sign = 1
        saw_sign = False
        while i < n and tokens[i][0] in ("plus", "minus"):
            if tokens[i][0] == "minus":
                sign = -sign
            saw_sign = True
            i += 1
        if not first and not saw_sign:
            raise ParseError(
                f"expected '+' or '-' before position {tokens[i][2]}", position=tokens[i][2]
            )
        if i >= n:
            raise ParseError("dangling sign at end of input", position=len(text))
        coeff = Fraction(sign)
        exps: dict = {}
        while True:
            kind, value, pos = tokens[i]
            if kind == "number":
                if "/" in value:
                    num, den = (_integer(part, pos) for part in value.split("/"))
                    if den == 0:
                        raise ParseError(f"zero denominator at position {pos}", position=pos)
                    coeff *= Fraction(num, den)
                else:
                    coeff *= _integer(value, pos)
                i += 1
            elif kind == "var":
                var = value
                i += 1
                exp = 1
                if i < n and tokens[i][0] == "caret":
                    i += 1
                    if i >= n or tokens[i][0] != "number" or "/" in tokens[i][1]:
                        where = tokens[i][2] if i < n else len(text)
                        raise ParseError(f"expected integer exponent at position {where}", position=where)
                    exp = _integer(tokens[i][1], tokens[i][2])
                    i += 1
                exps[var] = exps.get(var, 0) + exp
            else:
                raise ParseError(f"unexpected token {value!r} at position {pos}", position=pos)
            # A '*' continues the term with another factor; anything else ends it.
            if i == n or tokens[i][0] != "star":
                break
            i += 1
            if i == n:
                star = tokens[i - 1][2]
                raise ParseError(f"dangling '*' at position {star}", position=star)
        terms.append((coeff, exps))
        first = False
    return terms


def _term_families(terms) -> tuple:
    hom = any(v in _HOM_VARS for _, exps in terms for v in exps)
    loc = any(v in _LOCAL_VARS for _, exps in terms for v in exps)
    return hom, loc


def parse_homogeneous(text: str, degree: Optional[int] = None) -> HomPoly:
    """Parse a homogeneous form in x0, x1, x2.

    Inhomogeneous input is rejected with the offending monomial named.
    ``degree`` pins the expected degree; constants that sum to zero,
    such as "0", give the zero form of that degree.
    """
    terms = _parse_terms(text)
    hom, loc = _term_families(terms)
    if loc:
        raise ParseError("local variables x, y are not allowed in a homogeneous form")
    triples = [tuple(exps.get(v, 0) for v in _HOM_VARS) for _, exps in terms]
    degs = list(map(sum, triples))
    seen = set(degs)
    if len(seen) > 1:
        # Name an offending monomial: one whose degree differs from the first.
        d0 = degs[0]
        for (coeff, _), triple, d in zip(terms, triples, degs):
            if d != d0:
                mono = _monomial_text(triple, ("x0", "x1", "x2")) or str(coeff)
                raise ParseError(
                    f"inhomogeneous input: term {mono!r} has degree {d}, "
                    f"earlier terms have degree {d0}"
                )
    d = seen.pop()
    if degree is not None and d != degree:
        all_const = all(not exps for _, exps in terms)
        if not all_const or sum(c for c, _ in terms) != 0:
            raise ParseError(f"parsed degree {d} does not match required degree {degree}")
        return HomPoly.zero(degree)
    out = [_ZERO] * monomial_count(d)
    for (coeff, _), triple in zip(terms, triples):
        out[monomial_index(d, triple)] += coeff
    return HomPoly(d, tuple(out))


def parse_local(text: str) -> LocalPoly:
    """Parse a germ polynomial in the affine variables x, y."""
    terms = _parse_terms(text)
    hom, loc = _term_families(terms)
    if hom:
        raise ParseError("homogeneous variables x0, x1, x2 are not allowed in a germ")
    d: dict = {}
    for coeff, exps in terms:
        k = (exps.get("x", 0), exps.get("y", 0))
        d[k] = d.get(k, _ZERO) + coeff
    return LocalPoly.from_dict(d)


def _monomial_text(exps: Sequence[int], names) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _format_terms(term_list, names) -> str:
    if not term_list:
        return "0"
    pieces = []
    for exp, coeff in term_list:
        mono = _monomial_text(exp, names)
        mag = abs(coeff)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        pieces.append((coeff < 0, body))
    out = []
    for k, (neg, body) in enumerate(pieces):
        if k == 0:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f" - {body}" if neg else f" + {body}")
    return "".join(out)
