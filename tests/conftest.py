"""Shared test oracles and reference data.

The oracles here deliberately reimplement small pieces of the library
with different algorithms (Fraction elimination instead of the
library's integer echelon core, cofactor expansion instead of
elimination, Horner evaluation instead of monomial sums) so that
cross-checks exercise independent code paths:

- naive_rank, naive_det, cofactor_det: first-nonzero Fraction
  elimination and cofactor expansion.
- degree_monomials, evaluation_rows, horner_eval: monomial order and
  evaluation computed afresh.
- euler_relation_holds: the Euler identity at a point, by Horner.
- ambient_codim, ambient_singular_subspace: singular loci cut out in
  the ambient space of all curves, never in the fibre's compressed
  coordinates.
- zero_column_module, proportional_pair_module: Kronecker modules
  broken on purpose.
"""

from fractions import Fraction


# Reference configuration: ten points in the plane, degree 6, used for the
# non-transversality verification (four singular loci meet in codimension 8
# but adding the fifth raises it only to 9).
REFERENCE_POINTS_D6 = [
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (0, 1, 1),
    (0, 1, -1),
    (1, -2, 0),
    (1, 2, -1),
    (1, 1, -2),
    (1, -1, 1),
    (1, 1, -1),
]


def naive_rank(rows):
    """Gaussian elimination with first-nonzero pivoting; returns the rank."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def naive_det(rows):
    """Determinant by first-nonzero Fraction Gaussian elimination."""
    rows = [[Fraction(x) for x in r] for r in rows]
    n = len(rows)
    sign = 1
    acc = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        acc *= rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[c][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return acc if sign == 1 else -acc


def cofactor_det(rows):
    """Determinant by literal cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        a = Fraction(rows[0][j])
        if a == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = a * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def degree_monomials(k):
    """Degree-k monomial exponents in the package's order, computed afresh."""
    out = []
    for e0 in range(k, -1, -1):
        for e1 in range(k - e0, -1, -1):
            out.append((e0, e1, k - e0 - e1))
    return out


def evaluation_rows(points, k):
    """Evaluation matrix rows of the degree-k monomials at simple points."""
    rows = []
    for p in points:
        p = [Fraction(x) for x in p]
        row = []
        for (a, b, c) in degree_monomials(k):
            row.append(p[0] ** a * p[1] ** b * p[2] ** c)
        rows.append(row)
    return rows


def horner_eval(poly, pt):
    """Evaluate a homogeneous polynomial by nested Horner recursion.

    Independent of HomPoly.eval: groups coefficients by the x0 exponent,
    then applies Horner in x0 with inner Horner evaluations in x1.
    """
    x0, x1, x2 = (Fraction(v) for v in pt)
    d = poly.degree
    mons = degree_monomials(d)
    by_e0 = {}
    for coeff, (a, b, c) in zip(poly.coeffs, mons):
        by_e0.setdefault(a, []).append((b, c, coeff))
    acc = Fraction(0)
    for a in range(d, -1, -1):
        acc *= x0
        inner = Fraction(0)
        for b in range(d - a, -1, -1):
            inner *= x1
            val = Fraction(0)
            for (bb, cc, coeff) in by_e0.get(a, []):
                if bb == b:
                    val += coeff * x2 ** cc
            inner += val
        acc += inner
    return acc


def euler_relation_holds(p, pt):
    """x0*d0p + x1*d1p + x2*d2p = deg(p) * p, checked at a point by Horner."""
    if p.degree == 0:
        return True
    pt = [Fraction(v) for v in pt]
    lhs = sum(pt[v] * horner_eval(p.partial(v), pt) for v in range(3))
    return lhs == p.degree * horner_eval(p, pt)


def _ambient_rows(fib, ids):
    """The membership rows cutting the fibre, then every condition row at ids."""
    from sheafloci.schemes import membership_conditions
    from sheafloci.singloci import singular_conditions

    rows = membership_conditions(fib.config, fib.degree)
    for pid in ids:
        rows.extend(list(r) for r in singular_conditions(fib.config, pid).rows)
    return rows


def ambient_codim(fib, ids):
    """Codimension in the fibre of the curves singular at every point of ids.

    Ranks the ambient rows with naive_rank and subtracts the scheme's
    length, the fibre's codimension; no compressed coordinates and no
    integer echelon.
    """
    from sheafloci.schemes import length

    return naive_rank(_ambient_rows(fib, ids)) - length(fib.config)


def ambient_singular_subspace(fib, pid):
    """Curves in the fibre with singular sheaf at the point, cut ambiently."""
    from sheafloci.linsys import ProjSubspace

    return ProjSubspace.cut_by(_ambient_rows(fib, [pid]), fib.space.ambient)


def zero_column_module(phi, col=0):
    """Copy of a Kronecker module with one column zeroed out.

    The vector with x0 in slot col and zeros elsewhere is then a linear
    column syzygy, so the module cannot define an injective sheaf map.
    """
    from sheafloci.poly import LinForm

    zero = LinForm.zero()
    return phi.with_column(col, [zero] * phi.nrows)


def proportional_pair_module(phi, l1, l2, scalars):
    """Copy of a Kronecker module whose first two columns share a direction.

    Column 0 becomes (c_i * l2) and column 1 becomes (-c_i * l1), so
    (l1, l2, 0, ...) is a linear column syzygy.
    """
    from fractions import Fraction as F

    from sheafloci.poly import LinForm

    def scaled(lin, c):
        return LinForm(lin.a0 * c, lin.a1 * c, lin.a2 * c)

    cs = [F(c) for c in scalars]
    out = phi.with_column(0, [scaled(l2, c) for c in cs])
    return out.with_column(1, [scaled(l1, -c) for c in cs])
