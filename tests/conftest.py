"""Shared test oracles and reference data.

The oracles here deliberately reimplement small pieces of the library
with different algorithms (Fraction elimination instead of the
library's integer echelon core, cofactor expansion instead of
elimination, Horner evaluation instead of monomial sums) so that
cross-checks exercise independent code paths:

- naive_echelon, naive_rank, reduce_modulo, rank_modulo, naive_det,
  cofactor_det: first-nonzero Fraction elimination and cofactor
  expansion.
- rank_mod_p: the rank modulo exactalg's prime, by Gauss-Jordan
  elimination with modular inverses.
- ReadRows: a list of rows that notes whether rank_of_rows read it.
- degree_monomials, evaluation_rows, horner_eval, partial: monomial
  order, evaluation and differentiation computed afresh.
- euler_relation_holds: the Euler identity at a point, by Horner.
- matrix_product: the product of two matrices given as row lists;
  identity_matrix: the n x n identity.
- naive_rref, naive_kernel, naive_solve, naive_inverse: the RREF by
  Fraction Gauss-Jordan elimination (naive_echelon), and the null-space
  basis, solution and inverse read off it.
- ambient_codim, ambient_singular_subspace: singular loci cut out in
  the ambient space of all curves, never in the fibre's compressed
  coordinates.
- ExactFibre: the fibre's exact subspace, the reduced echelon form of
  its membership rows, with members and compressed condition blocks in
  its free coordinates.
- zero_column_module, proportional_pair_module: Kronecker modules
  broken on purpose.
- random_fat_config: seeded configurations with any fat multiplicities,
  past the two strata random_config draws.
- SEEDED_STRATA, seeded_stratum_config: one seeded configuration per
  degree 4-8 and stratum, fat points of multiplicity 3 and 2+2 included.

run_fresh_python runs a script in a new interpreter, for checks on what
a process imports: the test process itself has loaded every module.
"""

import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest


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


def naive_echelon(rows):
    """Gauss-Jordan elimination with first-nonzero pivoting.

    Returns a (column, row) pair per pivot row; every other pivot row is
    zero in that column.
    """
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    cols = []
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
        cols.append(c)
        r += 1
    return list(zip(cols, rows))


def naive_rank(rows):
    """Gaussian elimination with first-nonzero pivoting; returns the rank."""
    return len(naive_echelon(rows))


def reduce_modulo(echelon, rows):
    """Each row cleared at the pivots of a naive_echelon, as Fractions."""
    rest = []
    for row in rows:
        row = [Fraction(x) for x in row]
        for c, p in echelon:
            if row[c]:
                f = row[c] / p[c]
                row = [a - f * b for a, b in zip(row, p)]
        rest.append(row)
    return rest


def rank_modulo(echelon, rows):
    """Rank of rows modulo the span of a naive_echelon.

    The rows' remainders (reduce_modulo) are ranked with naive_rank;
    rank(E + rows) = len(E) + rank_modulo(E, rows).
    """
    return naive_rank(reduce_modulo(echelon, rows))


class ReadRows(list):
    """A list of rows that notes whether anything iterated it."""

    read = False

    def __iter__(self):
        self.read = True
        return super().__iter__()


def rank_mod_p(rows):
    """Rank of integer rows modulo exactalg's prime P, by Gauss-Jordan
    elimination with modular inverses."""
    from sheafloci.exactalg import _PRIME as P

    rows = [[a % P for a in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, P)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [(a - f * b) % P for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


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

    Groups coefficients by the x0 exponent, then applies Horner in x0
    with inner Horner evaluations in x1.
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


def partial(p, var):
    """Partial derivative of a form of positive degree in x0, x1 or x2."""
    from sheafloci.poly import HomPoly

    d = p.degree
    index = {exp: i for i, exp in enumerate(degree_monomials(d - 1))}
    out = [Fraction(0)] * len(index)
    for exp, coeff in zip(degree_monomials(d), p.coeffs):
        if exp[var]:
            lower = list(exp)
            lower[var] -= 1
            out[index[tuple(lower)]] += exp[var] * coeff
    return HomPoly.from_coeffs(d - 1, out)


def euler_relation_holds(p, pt):
    """x0*d0p + x1*d1p + x2*d2p = deg(p) * p, checked at a point by Horner."""
    if p.degree == 0:
        return True
    pt = [Fraction(v) for v in pt]
    lhs = sum(pt[v] * horner_eval(partial(p, v), pt) for v in range(3))
    return lhs == p.degree * horner_eval(p, pt)


def matrix_product(a, b):
    """Row lists of the product of the matrices with row lists a and b."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def identity_matrix(n):
    """The n x n identity QMatrix."""
    from sheafloci.exactalg import QMatrix

    return QMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def naive_rref(rows):
    """(pivot column, RREF row) pairs: naive_echelon rows over their pivots."""
    return [(c, [a / row[c] for a in row]) for c, row in naive_echelon(rows)]


def naive_kernel(rows, ncols):
    """Null-space basis read off naive_rref, one vector per free column.

    The vector of free column f has 1 at f, 0 at the other free columns
    and minus the RREF entry in column f at each pivot column.
    """
    rref = naive_rref(rows)
    pivots = {c for c, _ in rref}
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for c, row in rref:
                v[c] = -row[f]
            basis.append(v)
    return basis


def naive_solve(rows, b, ncols):
    """The solution of rows x = b with free variables 0, or None if inconsistent."""
    rref = naive_rref([list(r) + [bv] for r, bv in zip(rows, b)])
    if any(c == ncols for c, _ in rref):
        return None
    x = [Fraction(0)] * ncols
    for c, row in rref:
        x[c] = row[ncols]
    return x


def naive_inverse(rows):
    """Row lists of the inverse, from the RREF of [rows | I]; None if singular."""
    n = len(rows)
    rref = naive_rref([list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)])
    if [c for c, _ in rref] != list(range(n)):
        return None
    return [row[n:] for _, row in rref]


def _ambient_rows(fib, ids):
    """The membership rows cutting the fibre, then every condition row at ids."""
    from sheafloci.schemes import membership_conditions
    from sheafloci.singloci import singular_conditions

    rows = membership_conditions(fib.config, fib.degree)
    for pid in ids:
        rows.extend(list(r) for r in singular_conditions(fib.config, pid))
    return rows


@lru_cache(maxsize=8)
def _membership_echelon(cfg):
    from sheafloci.schemes import membership_conditions

    return naive_echelon(membership_conditions(cfg, cfg.degree))


@lru_cache(maxsize=256)
def _singular_remainder(cfg, pid):
    """The singular rows at one point, reduced modulo the membership echelon."""
    from sheafloci.singloci import singular_conditions

    return reduce_modulo(_membership_echelon(cfg), singular_conditions(cfg, pid))


def ambient_codim(fib, ids):
    """Codimension in the fibre of the curves singular at every point of ids.

    The ambient rank of the membership rows M stacked with the singular
    rows S is rank(M) + rank(S mod M).  M is reduced once per
    configuration by naive_echelon, and each point's singular rows once
    modulo it; a subset ranks its points' stacked remainders with
    naive_rank.  Subtracts the scheme's length, the fibre's
    codimension; no compressed coordinates and no integer echelon.
    """
    from sheafloci.schemes import expected_length

    echelon = _membership_echelon(fib.config)
    rest = [r for pid in ids for r in _singular_remainder(fib.config, pid)]
    return len(echelon) + naive_rank(rest) - expected_length(fib.degree)


def random_fat_config(d, seed, mults):
    """Seeded configuration with one fat point per entry of mults.

    Draws like schemes.random_config: the fat points first through
    schemes._random_fat_point, then the simple points, rejecting a
    candidate until no degree-(d-3) curve passes through the scheme.
    """
    from sheafloci.errors import ConfigError
    from sheafloci.rng import SplitMix64
    from sheafloci.schemes import (
        MAX_REJECTIONS,
        PointConfig,
        _random_fat_point,
        _random_point,
        expected_length,
    )

    rng = SplitMix64(seed)
    for _ in range(MAX_REJECTIONS):
        try:
            fat = [_random_fat_point(rng, m) for m in mults]
            simple = [_random_point(rng) for _ in range(expected_length(d) - sum(mults))]
            cfg = PointConfig.of(d, simple, fat)
        except ConfigError:
            continue
        if cfg.admissible:
            return cfg
    raise AssertionError(f"no admissible configuration for {d}, {seed}, {mults}")


# generic and double-point configurations at degrees 4-8, one triple
# point at 4-8 and two double points at 5-8 (four is too few for 2+2),
# as pytest parameters (degree, stratum, fat multiplicities)
SEEDED_STRATA = [
    pytest.param(d, stratum, (), id=f"{d}-{stratum}")
    for d in range(4, 9)
    for stratum in ("generic", "double")
] + [
    pytest.param(d, "deep", mults, id=f"{d}-fat{'+'.join(map(str, mults))}")
    for mults, low in (((3,), 4), ((2, 2), 5))
    for d in range(low, 9)
]


def seeded_stratum_config(d, stratum, mults):
    """A configuration of SEEDED_STRATA, seeded by its degree."""
    from sheafloci.schemes import random_config

    if mults:
        return random_fat_config(d, d, mults)
    return random_config(d, d, stratum=stratum)


def ambient_singular_subspace(fib, pid):
    """Curves in the fibre with singular sheaf at the point, cut ambiently."""
    from sheafloci.linsys import ProjSubspace
    from sheafloci.poly import monomial_count

    return ProjSubspace.cut_by(_ambient_rows(fib, [pid]), monomial_count(fib.degree) - 1)


class ExactFibre:
    """The fibre as the exact subspace its membership rows M cut out.

    space is the ProjSubspace of M's reduced echelon form, inside the
    P_N of all degree-d forms.  element and basis_forms give fibre
    members in its free coordinates, and block a point's condition rows
    compressed to those coordinates, inserted into one integer echelon.
    The library keeps only M; tests read the exact subspace from here.
    """

    def __init__(self, fib):
        from sheafloci.linsys import ProjSubspace
        from sheafloci.poly import monomial_count

        self.fibre = fib
        self.space = ProjSubspace.cut_by(fib.membership, monomial_count(fib.degree) - 1)

    def element(self, free_coords):
        """The member with the given coordinates at the free columns."""
        from sheafloci.errors import ShapeError
        from sheafloci.poly import HomPoly

        space = self.space
        if len(free_coords) != len(space.free_columns):
            raise ShapeError(
                f"expected {len(space.free_columns)} free coordinates, got {len(free_coords)}"
            )
        coeffs = [Fraction(0)] * (space.ambient + 1)
        for j, c in zip(space.free_columns, free_coords):
            coeffs[j] = c
        for p, row in zip(space.pivots, space.block):
            coeffs[p] = Fraction(-sum(a * c for a, c in zip(row, free_coords)), space.den)
        return HomPoly.from_coeffs(self.fibre.degree, coeffs)

    def basis_forms(self):
        """3d forms spanning the fibre, one per free column."""
        from sheafloci.poly import HomPoly

        return [HomPoly.from_coeffs(self.fibre.degree, v) for v in self.space.basis()]

    def block(self, pid):
        """Integer echelon basis of the point's condition rows modulo the fibre."""
        from sheafloci.exactalg import insert_row
        from sheafloci.singloci import condition_rows

        echelon = {}
        for r in condition_rows(self.fibre.config, pid):
            insert_row(echelon, self.space.compress_numerators(r)[0])
        return list(echelon.values())


def _with_columns(phi, columns):
    """Copy of a Kronecker module with column j replaced by columns[j]."""
    from sheafloci.kronecker import KroneckerModule

    rows = [list(r) for r in phi.entries]
    for j, col in columns.items():
        for row, entry in zip(rows, col):
            row[j] = entry
    return KroneckerModule.from_rows(rows)


def zero_column_module(phi, col=0):
    """Copy of a Kronecker module with one column zeroed out.

    The vector with x0 in slot col and zeros elsewhere is then a linear
    column syzygy, so the module cannot define an injective sheaf map.
    """
    from sheafloci.poly import HomPoly

    return _with_columns(phi, {col: [HomPoly.zero(1)] * phi.nrows})


def proportional_pair_module(phi, l1, l2, scalars):
    """Copy of a Kronecker module whose first two columns share a direction.

    Column 0 becomes (c_i * l2) and column 1 becomes (-c_i * l1), so
    (l1, l2, 0, ...) is a linear column syzygy.
    """
    return _with_columns(
        phi, {0: [l2.scale(c) for c in scalars], 1: [l1.scale(-c) for c in scalars]}
    )


def run_fresh_python(script, *args):
    """Run `python -c script args...` with this checkout's src/ on the path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )
