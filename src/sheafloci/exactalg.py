"""Exact dense linear algebra over the rationals.

Scalars are ``fractions.Fraction``: arbitrary-precision, always in lowest
terms, positive denominator.  Every rank, kernel and inverse below is
exact; no floating point enters the package anywhere.

Rank and codimension statements about rational matrices are insensitive
to field extension, so computing over Q decides the same statements over
any algebraically closed field containing it.  That is why exact rational
arithmetic is enough even though the underlying geometry is usually set
up over an algebraically closed field.

Matrices stay small (well under 50x50 for every supported degree), so a
dense row-major layout is used.  Every elimination runs on one integer
core, ``insert_row``: a row is cleared of denominators once, then reduced
against the stored pivot rows by cross-multiplication, dividing out the
gcd of its entries after each step to keep coefficients small.
rank_of_rows counts the rows that survive; reduced_echelon
back-substitutes by inserting the echelon rows once more with the pivot
columns reversed, and leaves each row an integer multiple of its RREF
row (the reduced row echelon form is unique, so nothing depends on
pivot order); kernel and inverse read each entry of their
result off those rows, one Fraction of the entry over its row's pivot;
det tracks the row scalings, the cross-multiplication factors, the gcds
and the pivot permutation.  The fibre in ``linsys`` keeps no echelon
form, only its integer membership rows: their rank is certified mod P,
or else taken by rank_of_rows, and the curves that singloci imposes
come from one kernel call on those rows stacked with condition rows.
The jet oracle in ``localfree`` inserts its rows into the same core.

rank_of_rows first reduces the integer rows modulo the prime
P = 1073741789, the largest prime below 2^30.  Every minor mod P is the
reduction of the integer minor, so a minor that is nonzero mod P is
nonzero over Q and rank_P <= rank_Q.  Full row rank mod P therefore
proves full row rank over Q, and the row count is returned at once;
only rows that turn out dependent mod P go on to the exact integer
echelon.  The answer is exact either way; only the speed depends on the
prime.  The one mod-P elimination is echelon_mod_p; linsys and
singloci read fibre members and RREFs off its monic pivot rows.  A
caller may hand rank_of_rows a certificate instead: a nonzero multiple,
mod P, of a maximal minor of the rows' images under some fixed linear
map mod P.  The images have rank at most rank_P of the rows, so a
nonzero minor of as many images as there are rows proves full row rank.
singloci ranks every singular locus this way, on linsys's images.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import Record

_ZERO = Fraction(0)
_ONE = Fraction(1)

# The largest prime below 2^30: each residue fits in one 30-bit CPython
# digit and a product of two in 60 bits, and a random rank drop mod P
# (about one in 10^9 per row) only costs the exact fallback.  linsys and
# singloci read exactalg._PRIME at call time, so setting this one binding
# moves every certificate and fallback to another prime.
_PRIME = 1073741789


class QMatrix(Record):
    """Immutable dense matrix of Fractions, row-major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} does not match "
                f"{self.rows}x{self.cols}"
            )

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence], cols: Optional[int] = None) -> "QMatrix":
        rows = [list(r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            if cols is None:
                raise ValueError("cols required for a matrix with no rows")
            ncols = cols
        flat = tuple(Fraction(x) for r in rows for x in r)
        return cls(len(rows), ncols, flat)

    def get(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def row_lists(self) -> list:
        return [self.row(i) for i in range(self.rows)]


def integer_row(row: Sequence) -> tuple:
    """(integer row, scale): the rational row times the lcm of its denominators."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row], scale


def insert_row(pivots: dict, row: list) -> Optional[tuple]:
    """Reduce an integer row against an echelon and store what survives.

    pivots maps a column to a primitive integer row whose first nonzero
    entry lies in that column.  The row is divided by its content; each
    step then clears its first nonzero entry against the pivot row of
    that column, row <- p*row - f*pivot_row with p and f the two entries
    over their gcd, and divides out the content again.  Returns None
    when the row reduces to zero, else (column, num, den): the row now
    stored under that column is num/den times the given row plus a
    combination of the other pivot rows.
    """
    n = len(row)
    den = gcd(*row)
    if den == 0:
        return None
    if den > 1:
        row = [a // den for a in row]
    num = 1
    c = 0
    while True:
        while c < n and not row[c]:
            c += 1
        if c == n:
            return None
        top = pivots.get(c)
        if top is None:
            pivots[c] = row
            return c, num, den
        p, f = top[c], row[c]
        g = gcd(p, f)
        p, f = p // g, f // g
        c += 1
        tail = [p * a - f * b for a, b in zip(row[c:], top[c:])]
        g = gcd(*tail)
        if g > 1:
            tail = [a // g for a in tail]
            den *= g
        row = [0] * c + tail
        num *= p


def reduced_echelon(rows: Sequence) -> dict:
    """The RREF of rows of ints or Fractions, kept as integers.

    Maps each pivot column to a primitive integer row that is a nonzero
    multiple of the RREF row with that pivot: zero at the other pivot
    columns, so dividing it by its own pivot entry gives the RREF row.
    The rows enter an integer echelon.  Its rows then enter a second
    echelon in decreasing pivot order, with the pivot columns moved to
    the front in reverse: each row is cleared against the later pivot
    rows before reaching its own pivot, which is back-substitution.  The
    RREF is unique, so the row order does not matter.
    """
    echelon = {}
    for r in rows:
        insert_row(echelon, integer_row(r)[0])
    if not echelon:
        return {}
    ncols = len(rows[0])
    cols = sorted(echelon, reverse=True)
    order = cols + [j for j in range(ncols) if j not in echelon]
    reduced = {}
    for c in cols:
        insert_row(reduced, [echelon[c][j] for j in order])
    out = {}
    for k in range(len(cols) - 1, -1, -1):
        row = [0] * ncols
        for j, a in zip(order, reduced[k]):
            row[j] = a
        out[cols[k]] = row
    return out


def echelon_mod_p(rows: Iterable[Sequence[int]]) -> Optional[dict]:
    """The monic mod-_PRIME echelon of integer rows, or None if one falls dependent.

    Each row, all of one length, is reduced mod _PRIME, then from each
    stored pivot c it meets on: row[c + 1:] -= row[c] * pivot_row[c + 1:].
    A row that reaches a free column is stored there monic, zero before
    it.  Returns the echelon, a column to its row, when every row adds a
    pivot, that is when the rows are linearly independent modulo _PRIME.
    """
    pivots = {}
    for row in rows:
        row = [a % _PRIME for a in row]
        n = len(row)
        c = 0
        while True:
            while c < n and not row[c]:
                c += 1
            if c == n:
                return None
            top = pivots.get(c)
            if top is None:
                inv = pow(row[c], -1, _PRIME)
                pivots[c] = [0] * c + [a * inv % _PRIME for a in row[c:]]
                break
            # this step zeroes the row through c; row[:c + 1] is not read again
            f = row[c]
            c += 1
            row[c:] = [(a - f * b) % _PRIME for a, b in zip(row[c:], top[c:])]
    return pivots


def rank_of_rows(rows: Sequence[Sequence], minor: int = 0) -> int:
    """Rank of a list of row vectors of ints or Fractions.

    minor, when nonzero, is a certificate (see the module docstring): a
    nonzero multiple mod P of a maximal minor of the rows' images, one
    image per row.  Then the rows are independent and their count is
    returned without reading them; otherwise they are ranked as below.
    The certificate is not checked against the rows: the caller must
    have computed it from these very rows, or the rank may be wrong.
    """
    if minor:
        return len(rows)
    rows = [
        r if all(type(a) is int for a in r) else integer_row(r)[0] for r in rows
    ]
    # full row rank mod P is a certificate (see the module docstring)
    if echelon_mod_p(rows) is not None:
        return len(rows)
    pivots = {}
    return sum(insert_row(pivots, r) is not None for r in rows)


def kernel(m: QMatrix) -> list:
    """Basis of the right null space, as a list of vectors.

    One vector per free column of the RREF, in increasing order, with a
    1 in its free slot, zeros at the other free columns and, at each
    pivot column, minus the RREF entry of that pivot's row: m v = 0.
    """
    reduced = reduced_echelon(m.row_lists())
    basis = []
    for f in range(m.cols):
        if f in reduced:
            continue
        v = [_ZERO] * m.cols
        v[f] = _ONE
        for c, row in reduced.items():
            if row[f]:
                v[c] = Fraction(-row[f], row[c])
        basis.append(v)
    return basis


def inverse(m: QMatrix) -> QMatrix:
    """Inverse of a square matrix; ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    # [m | I] has n pivots; m is invertible iff they all lie in m
    reduced = reduced_echelon(
        [m.row(i) + [_ONE if j == i else _ZERO for j in range(n)] for i in range(n)]
    )
    if any(c >= n for c in reduced):
        raise ValueError("singular matrix has no inverse")
    return QMatrix.from_rows(
        [[Fraction(a, row[c]) for a in row[n:]] for c, row in reduced.items()], cols=n
    )


def det(m: QMatrix) -> Fraction:
    """Determinant from the integer echelon of the rows.

    Row i is scaled by s_i to clear its denominators and stored as
    num_i/den_i times that plus earlier rows, so det(m) is the signed
    product of the stored pivots times prod(den_i) / prod(num_i * s_i),
    the sign being that of the pivot columns in insertion order.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    pivots = {}
    order = []
    numer = denom = 1
    for r in m.row_lists():
        row, scale = integer_row(r)
        step = insert_row(pivots, row)
        if step is None:
            return _ZERO
        c, a, b = step
        order.append(c)
        numer *= b
        denom *= a * scale
    for c in order:
        numer *= pivots[c][c]
    inversions = sum(x > y for i, x in enumerate(order) for y in order[i + 1 :])
    return Fraction(-numer if inversions % 2 else numer, denom)
