"""Exact linear algebra: examples, frozen values, and bulk invariants."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import sheafloci.exactalg as exactalg
from sheafloci.exactalg import (
    QMatrix,
    det,
    inverse,
    kernel,
    rank_of_rows,
    reduced_echelon,
    solve,
)
from sheafloci.rng import SplitMix64

from conftest import (
    REFERENCE_POINTS_D6,
    ReadRows,
    cofactor_det,
    evaluation_rows,
    identity_matrix,
    matrix_product,
    naive_det,
    naive_inverse,
    naive_kernel,
    naive_rank,
    naive_solve,
    rank_mod_p,
)


def F(x):
    return Fraction(x)


def rref_rows(rows):
    """(RREF rows, pivots): reduced_echelon's rows each over its pivot entry."""
    reduced = reduced_echelon(rows)
    return [[Fraction(a, row[c]) for a in row] for c, row in reduced.items()], tuple(reduced)


def test_rref_identity_fixed_point():
    m = identity_matrix(3)
    r, pivots = rref_rows(m.row_lists())
    assert r == m.row_lists()
    assert pivots == (0, 1, 2)


def test_rref_rank_one():
    r, pivots = rref_rows([[1, 2], [2, 4]])
    assert pivots == (0,)
    assert r == [[F(1), F(2)]]


def test_rref_idempotent_on_seeded_matrices():
    rng = SplitMix64(101)
    for _ in range(50):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        r1, p1 = rref_rows(rows)
        r2, p2 = rref_rows(r1)
        assert r1 == r2
        assert p1 == p2


def test_reference_evaluation_matrix_rank_10():
    # The ten reference points impose independent conditions on cubics:
    # the square 10x10 evaluation matrix in degree 3 has full rank.
    rows = evaluation_rows(REFERENCE_POINTS_D6, 3)
    assert len(rows) == 10 and len(rows[0]) == 10
    assert rank_of_rows(rows) == 10
    assert naive_rank(rows) == 10
    assert naive_det(rows) != 0


def test_reference_degree4_kernel_dim_5():
    # Degree-4 forms through the ten reference points: 15 - 10 = 5 of them.
    rows = evaluation_rows(REFERENCE_POINTS_D6, 4)
    m = QMatrix.from_rows(rows)
    k = kernel(m)
    assert len(k) == 5
    # Exactness: every basis vector is annihilated by the matrix.
    for vec in k:
        assert all(v == 0 for v in m.apply(vec))


def test_kernel_of_identity_is_trivial():
    assert kernel(identity_matrix(4)) == []


def test_kernel_single_row():
    k = kernel(QMatrix.from_rows([[1, 1]]))
    assert len(k) == 1
    col = k[0]
    assert col[0] + col[1] == 0
    assert col != [F(0), F(0)]


def test_solve_identity_and_sum():
    assert solve(identity_matrix(2), [3, 4]) == [F(3), F(4)]
    x = solve(QMatrix.from_rows([[1, 1]]), [2])
    assert x is not None
    assert x[0] + x[1] == F(2)


def test_solve_inconsistent_returns_none():
    m = QMatrix.from_rows([[1, 1], [1, 1]])
    assert solve(m, [0, 1]) is None


def test_solve_zero_rows():
    m = QMatrix(0, 3, ())
    assert solve(m, []) == [F(0), F(0), F(0)]


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    m = QMatrix.from_rows([[1, 2], [3, 4]])
    for b in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match="right-hand side length mismatch"):
            solve(m, b)


def test_inverse_round_trip():
    m = QMatrix.from_rows([[2, 1, 0], [0, 1, 0], [1, 0, 1]])
    inv = inverse(m)
    assert matrix_product(m.row_lists(), inv.row_lists()) == identity_matrix(3).row_lists()
    with pytest.raises(ValueError):
        inverse(QMatrix.from_rows([[1, 2], [2, 4]]))


def test_inverse_rejects_a_non_square_matrix():
    for m in (QMatrix.from_rows([[1, 0, 0], [0, 1, 0]]), QMatrix.from_rows([[1], [0]])):
        with pytest.raises(ValueError, match="non-square"):
            inverse(m)


def test_det_matches_cofactor_oracle():
    rng = SplitMix64(77)
    for _ in range(30):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det(QMatrix.from_rows(rows)) == naive_det(rows)


def test_rank_plus_nullity_bulk():
    # 1000 seeded random matrices with entries of magnitude up to 10^6:
    # rank + nullity = columns, kernel columns annihilated exactly.
    rng = SplitMix64(20260819)
    for trial in range(1000):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        m = QMatrix.from_rows(
            [[rng.randint(-10**6, 10**6) for _ in range(nc)] for _ in range(nr)]
        )
        r = rank_of_rows(m.row_lists())
        k = kernel(m)
        assert r + len(k) == nc
        if trial % 50 == 0:
            for vec in k:
                assert all(v == 0 for v in m.apply(vec))


def test_solve_soundness_on_seeded_systems():
    rng = SplitMix64(404)
    for _ in range(200):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = QMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(nc)] for _ in range(nr)]
        )
        x_true = [rng.randint(-20, 20) for _ in range(nc)]
        b = m.apply(x_true)
        x = solve(m, b)
        assert x is not None
        assert m.apply(x) == b


def test_rank_of_rows_matches_rank():
    rng = SplitMix64(8)
    for _ in range(50):
        nr = rng.randint(0, 5)
        nc = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        assert rank_of_rows(rows) == naive_rank(rows)


# rank_of_rows reduces rows modulo this prime first.  All but one case
# below are dependent mod P, so they pass only if rank_of_rows falls back
# to exact elimination unless the rows are independent mod P.
P = exactalg._PRIME

FALLBACK_CASES = [
    # independent over Q, dependent mod P
    [[P, 1], [0, 1]],
    [[1, 1, 0], [1 + P, 1, 0], [0, 0, 3 * P]],
    # denominators P: cleared to [1, P] and [1, 0], equal mod P
    [[Fraction(1, P), 1], [Fraction(1, P), 0]],
    [[Fraction(1, P), 1], [Fraction(2, P), 2]],
    # denominators P, independent mod P as well
    [[Fraction(1, P), Fraction(2, P)], [Fraction(1, 3), Fraction(2, P)]],
    # rank-deficient over Q
    [[1, 2, 3], [2, 4, 6], [1, 0, 1]],
    [[0, 0], [0, 0]],
    [[1, 2], [3, 4], [5, 6]],
    [[Fraction(1, 2), 1], [1, 2], [0, 0]],
]


@pytest.mark.parametrize("rows", FALLBACK_CASES)
def test_rank_falls_back_when_dependent_mod_p(rows):
    assert rank_of_rows(rows) == naive_rank(rows)


def test_rank_skips_exact_elimination_only_for_full_row_rank(monkeypatch):
    import sheafloci.exactalg as exactalg

    original = exactalg.insert_row
    inserted = []

    def counting_insert(pivots, row):
        inserted.append(row)
        return original(pivots, row)

    monkeypatch.setattr(exactalg, "insert_row", counting_insert)
    assert rank_of_rows([[1, 2, 3], [Fraction(1, 2), 5, 7]]) == 2
    assert inserted == []
    assert rank_of_rows([[P, 1], [0, 1]]) == 2
    assert len(inserted) == 2


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(
            st.sampled_from([0, 0, 1, -1, P, -P, 2 * P, P + 1, P - 1, Fraction(1, P)]),
            min_size=3,
            max_size=3,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_rank_of_rows_near_the_prime_matches_naive_rank(rows):
    assert rank_of_rows(rows) == naive_rank(rows)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=5, max_size=5),
        min_size=1,
        max_size=5,
    )
)
def test_nonzero_minor_certifies_rank_of_rows(rows):
    # entries of at most 3 on five columns keep every minor below P, so
    # a minor nonzero over Q is nonzero mod P
    minors = (
        naive_det([[r[c] for c in cols] for r in rows])
        for cols in combinations(range(5), len(rows))
    )
    minor = next((m for m in minors if m), 0) % P
    assert (minor != 0) == (naive_rank(rows) == len(rows))
    if minor:
        certified = ReadRows(rows)
        assert rank_of_rows(certified, minor) == naive_rank(rows)
        assert not certified.read
    exact = ReadRows(rows)
    assert rank_of_rows(exact, 0) == naive_rank(rows)
    assert exact.read


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=5, max_size=5),
        min_size=1,
        max_size=5,
    ),
    st.integers(0, 4),
)
def test_extend_mod_p_appends_the_new_rows_reduced(rows, split):
    # the given echelon comes first, unchanged, then each new row as
    # reduced against the entries before it
    residues = [[a % P for a in r] for r in rows]
    prefix = exactalg.extend_mod_p({}, residues[:split])
    full = None if prefix is None else exactalg.extend_mod_p(prefix, residues[split:])
    if full is None:
        return
    entries = list(full.items())
    assert entries[: len(prefix)] == list(prefix.items())
    assert len(entries) == len(rows)
    for k, row in enumerate(residues[split:]):
        before = [r for _, r in entries[: len(prefix) + k]]
        column, stored = entries[len(prefix) + k]
        assert column == next(j for j, a in enumerate(stored) if a)
        # stored is row reduced modulo the entries before it
        assert rank_mod_p(before + [stored]) == len(before) + 1
        assert rank_mod_p(before + [stored, row]) == len(before) + 1


@st.composite
def small_matrix(draw, square=False, min_size=1):
    """Fraction matrices up to 4x4; zero-heavy rows make rank drops common.

    min_size=0 also draws matrices with no rows or no columns.
    """
    nr = draw(st.integers(min_size, 4))
    nc = nr if square else draw(st.integers(min_size, 4))
    dense = st.fractions(max_denominator=9)
    sparse = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), dense)
    rows = draw(
        st.lists(
            st.lists(dense, min_size=nc, max_size=nc)
            | st.lists(sparse, min_size=nc, max_size=nc),
            min_size=nr,
            max_size=nr,
        )
    )
    return QMatrix.from_rows(rows, cols=nc)


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rref_pivots_are_canonical(m):
    r, pivots = rref_rows(m.row_lists())
    assert rank_of_rows(m.row_lists()) == len(pivots)
    # Pivot columns carry unit vectors.
    for k, p in enumerate(pivots):
        col = [row[p] for row in r]
        assert col[k] == 1
        assert all(col[i] == 0 for i in range(len(r)) if i != k)
    # Idempotence.
    assert rref_rows(r)[0] == r


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_kernel_exactness_property(m):
    k = kernel(m)
    assert rank_of_rows(m.row_lists()) + len(k) == m.cols
    for vec in k:
        assert all(v == 0 for v in m.apply(vec))


# The RREF is unique, so kernel, solve and inverse must equal what the
# Fraction Gauss-Jordan oracles read off it, entry for entry.
@settings(max_examples=200, deadline=None)
@given(small_matrix(min_size=0))
def test_kernel_matches_gauss_jordan_property(m):
    assert kernel(m) == naive_kernel(m.row_lists(), m.cols)


@settings(max_examples=200, deadline=None)
@given(small_matrix(min_size=0), st.data())
def test_solve_matches_gauss_jordan_property(m, data):
    entries = st.lists(st.fractions(max_denominator=9), min_size=m.cols, max_size=m.cols)
    if data.draw(st.booleans()):
        b = m.apply(data.draw(entries))  # consistent
    else:
        b = data.draw(st.lists(st.fractions(max_denominator=9), min_size=m.rows, max_size=m.rows))
    assert solve(m, b) == naive_solve(m.row_lists(), b, m.cols)


@settings(max_examples=200, deadline=None)
@given(small_matrix(square=True, min_size=0))
def test_inverse_matches_gauss_jordan_property(m):
    expected = naive_inverse(m.row_lists())
    if expected is None:
        with pytest.raises(ValueError, match="singular"):
            inverse(m)
    else:
        assert inverse(m).row_lists() == expected


@settings(max_examples=200, deadline=None)
@given(small_matrix())
def test_rank_of_rows_matches_naive_rank_property(m):
    rows = m.row_lists()
    assert rank_of_rows(rows) == naive_rank(rows)


@settings(max_examples=200, deadline=None)
@given(small_matrix(square=True))
def test_det_matches_cofactor_det_property(m):
    # Fraction entries exercise the row scalings, gcds and pivot sign.
    assert det(m) == cofactor_det(m.row_lists())


@settings(max_examples=100, deadline=None)
@given(small_matrix(), st.data())
def test_rref_invariant_under_row_permutation(m, data):
    perm = data.draw(st.permutations(range(m.rows)))
    shuffled = [m.row(i) for i in perm]
    assert rref_rows(shuffled) == rref_rows(m.row_lists())
