"""Polynomial layer: monomial order, calculus, determinants, parsing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sheafloci.errors import ParseError, ShapeError
from sheafloci.exactalg import QMatrix
from sheafloci.poly import (
    HomPoly,
    LocalPoly,
    det_poly_matrix,
    monomial_count,
    monomial_index,
    monomials,
    parse_homogeneous,
    parse_local,
    substitute_linear,
    upoly_add,
    upoly_mul,
)
from sheafloci.rng import SplitMix64
from sheafloci.schemes import SimplePoint, branch_rows

from conftest import (
    cofactor_det,
    degree_monomials,
    euler_relation_holds,
    horner_eval,
    identity_matrix,
    matrix_product,
    matrix_vector,
    partial,
)

X0, X1, X2 = (parse_homogeneous(v) for v in ("x0", "x1", "x2"))


def random_hompoly(rng, degree, span=9):
    return HomPoly.from_coeffs(
        degree, [Fraction(rng.randint(-span, span)) for _ in range(monomial_count(degree))]
    )


def test_monomial_order_degree_1():
    assert monomials(1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_monomial_order_leading_terms_degree_3():
    # Degree d-3 = 3 for d = 6: the order starts x0^3, x0^2 x1, x0^2 x2.
    assert monomials(3)[:3] == ((3, 0, 0), (2, 1, 0), (2, 0, 1))


def test_monomial_count_degree_6():
    assert len(monomials(6)) == 28
    assert monomial_count(6) == 28


def test_monomial_index_round_trip():
    for d in (0, 1, 2, 5, 8):
        for i, exp in enumerate(monomials(d)):
            assert monomial_index(d, exp) == i
    assert monomials(4) == tuple(degree_monomials(4))


def test_eval_monomial_examples():
    d = 5
    p = HomPoly.monomial(d, (d, 0, 0))
    assert horner_eval(p, (1, 0, 0)) == 1
    assert horner_eval(p, (2, 3, 4)) == 32
    q = HomPoly.monomial(d, (0, 3, 2))
    assert horner_eval(q, (7, 1, 1)) == 1
    assert horner_eval(q, (0, 2, 3)) == 8 * 9


def test_eval_matches_horner_oracle():
    # the library evaluates forms at simple points through their monomial rows
    rng = SplitMix64(11)
    done = 0
    while done < 40:
        d = rng.randint(1, 6)
        p = random_hompoly(rng, d)
        pt = (rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
        if pt == (0, 0, 0):
            continue
        point = SimplePoint.of(*pt)
        row = branch_rows(point, d, [0])[0]
        assert sum(a * c for a, c in zip(row, p.coeffs)) == horner_eval(p, point.primitive)
        done += 1


def test_eval_homogeneity_under_rescaling():
    rng = SplitMix64(12)
    for _ in range(20):
        d = rng.randint(1, 5)
        p = random_hompoly(rng, d)
        pt = (rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 5))
        lam = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        scaled = tuple(lam * Fraction(v) for v in pt)
        assert horner_eval(p, scaled) == lam**d * horner_eval(p, pt)


def test_partial_examples():
    d = 6
    p = HomPoly.monomial(d, (d - 1, 1, 0))
    dp = partial(p, 1)
    assert dp == HomPoly.monomial(d - 1, (d - 1, 0, 0))
    # Gradient of x1^d at (1:0:0) vanishes entirely.
    q = HomPoly.monomial(d, (0, d, 0))
    assert all(horner_eval(partial(q, v), (1, 0, 0)) == 0 for v in range(3))


def test_euler_identity_seeded_quintics():
    rng = SplitMix64(5)
    for _ in range(100):
        p = random_hompoly(rng, 5)
        pt = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        assert euler_relation_holds(p, pt)


def test_product_degree_and_bilinearity():
    rng = SplitMix64(21)
    a = random_hompoly(rng, 2)
    b = random_hompoly(rng, 3)
    c = random_hompoly(rng, 3)
    assert (a * b).degree == 5
    assert a * (b + c) == a * b + a * c
    pt = (2, -1, 3)
    assert horner_eval(a * b, pt) == horner_eval(a, pt) * horner_eval(b, pt)


def test_det_poly_matrix_small():
    assert det_poly_matrix([[X0]]) == X0
    d = det_poly_matrix([[X0, X1], [X2, X0]])
    assert d == X0 * X0 - X1 * X2
    assert d.degree == 2


def test_det_poly_matrix_mixed_column_degrees():
    # One quadratic column next to a linear column: degree 3 determinant.
    m = [[X0 * X0, X1], [X1 * X1, X0]]
    d = det_poly_matrix(m)
    assert d.degree == 3
    assert d == X0 * X0 * X0 - X1 * X1 * X1


def test_det_poly_matrix_rejects_inconsistent_shape():
    q = X0 * X0
    with pytest.raises(ShapeError):
        det_poly_matrix([[X0, q], [q, X0]])


def test_det_poly_matrix_matches_pointwise_determinant():
    # Two routes: expand the polynomial determinant then evaluate, versus
    # evaluate every entry first and take the scalar determinant.
    rng = SplitMix64(31)
    for _ in range(20):
        n = rng.randint(2, 4)
        mat = [[
            HomPoly.from_coeffs(1, [rng.randint(-5, 5) for _ in range(3)])
            for _ in range(n)] for _ in range(n)]
        dpoly = det_poly_matrix(mat)
        assert dpoly.degree == n
        pt = (rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
        pointwise = cofactor_det([[horner_eval(e, pt) for e in row] for row in mat])
        assert horner_eval(dpoly, pt) == pointwise


def test_substitute_linear_identity_and_swap():
    p = parse_homogeneous("x0*x2 - x1^2")
    assert substitute_linear(p, identity_matrix(3)) == p
    swap = QMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    q = substitute_linear(p, swap)
    assert q == parse_homogeneous("x0*x1 - x2^2")


def test_substitute_linear_is_right_action():
    rng = SplitMix64(41)
    done = 0
    while done < 10:
        g_rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        h_rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        g = QMatrix.from_rows(g_rows)
        h = QMatrix.from_rows(h_rows)
        if cofactor_det(g_rows) == 0 or cofactor_det(h_rows) == 0:
            continue
        p = random_hompoly(rng, rng.randint(1, 4), span=5)
        gh = QMatrix.from_rows(matrix_product(g_rows, h_rows))
        assert substitute_linear(p, gh) == substitute_linear(substitute_linear(p, g), h)
        done += 1


def test_substitute_linear_rejects_singular():
    g = QMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    with pytest.raises(ValueError):
        substitute_linear(X0, g)


def test_substitute_linear_compatible_with_evaluation():
    rng = SplitMix64(43)
    g = QMatrix.from_rows([[1, 1, 0], [0, 1, 2], [1, 0, 1]])
    p = random_hompoly(rng, 3)
    q = substitute_linear(p, g)
    for _ in range(5):
        v = [rng.randint(-5, 5) for _ in range(3)]
        assert horner_eval(q, v) == horner_eval(p, matrix_vector(g, v))


def test_parse_homogeneous_example():
    p = parse_homogeneous("x0^2*x1 - 3/2*x2^3")
    assert p.degree == 3
    assert p.coeffs[monomial_index(3, (2, 1, 0))] == 1
    assert p.coeffs[monomial_index(3, (0, 0, 3))] == Fraction(-3, 2)
    assert sum(1 for _ in p.terms()) == 2


def test_parse_local_example():
    f = parse_local("y^2 - x^3")
    assert f.coefficient(0, 2) == 1
    assert f.coefficient(3, 0) == -1
    assert f.total_degree() == 3
    assert f.order() == 2


def test_parse_rejects_inhomogeneous_with_monomial_named():
    with pytest.raises(ParseError) as err:
        parse_homogeneous("x0 + x1^2")
    assert "x1^2" in str(err.value)


def test_parse_error_positions():
    for parser in (parse_homogeneous, parse_local):
        with pytest.raises(ParseError) as err:
            parser("x0 + $")
        assert err.value.position == 5
        for text in ("x0 x1", "", "3/0*x0", "x0 +", "x0^y", "y x", "x^"):
            with pytest.raises(ParseError):
                parser(text)


def test_parse_rejects_a_trailing_star_at_its_position():
    for parser, text in ((parse_homogeneous, "x0^2 - x1^2*"), (parse_local, "x^2 - y^3*")):
        with pytest.raises(ParseError, match="dangling") as err:
            parser(text)
        assert err.value.position == text.index("*")


def test_parse_homogeneous_pinned_degree():
    with pytest.raises(ParseError, match="parsed degree 0 does not match required degree 2"):
        parse_homogeneous("3", degree=2)
    assert parse_homogeneous("1 - 1", degree=2) == HomPoly.zero(2)
    assert parse_homogeneous("0", degree=3) == HomPoly.zero(3)


def test_parse_rejects_mixed_families():
    for parser in (parse_homogeneous, parse_local):
        with pytest.raises(ParseError):
            parser("x0 + y")


def test_print_parse_round_trip_seeded():
    # 500 seeded random polynomials: parse(print(p)) == p.
    rng = SplitMix64(500)
    for trial in range(500):
        if trial % 2 == 0:
            d = rng.randint(0, 6)
            p = HomPoly.from_coeffs(
                d,
                [Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                 for _ in range(monomial_count(d))],
            )
            text = str(p)
            q = parse_homogeneous(text, degree=d)
            assert q == p, text
        else:
            terms = {}
            for _ in range(rng.randint(0, 6)):
                key = (rng.randint(0, 4), rng.randint(0, 4))
                terms[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            p = LocalPoly.from_dict(terms)
            text = str(p)
            q = parse_local(text)
            assert q == p, text


def test_canonical_print_examples():
    assert str(HomPoly.zero(4)) == "0"
    assert str(parse_homogeneous("x0^2*x1 - 3/2*x2^3")) == "x0^2*x1 - 3/2*x2^3"
    assert str(parse_local("-x + y^2")) == "-x + y^2"
    assert str(LocalPoly.from_dict({(0, 0): Fraction(-5, 3)})) == "-5/3"


def test_local_poly_arithmetic():
    x = parse_local("x")
    y = parse_local("y")
    f = x * x - y * y * y
    assert f == parse_local("x^2 - y^3")
    assert f.coefficient(2, 0) == 1
    assert f.coefficient(0, 3) == -1
    assert (f - f).is_zero()
    assert f.order() == 2
    assert f.linear_part() == (0, 0)
    assert (x + y).linear_part() == (1, 1)


def test_local_substitute_x():
    # f(x, y) = x^2 - y^3 at x = h(y) = y: y^2 - y^3.
    f = parse_local("x^2 - y^3")
    s = f.substitute_x([0, 1])
    assert s == [0, 0, 1, -1]
    # h = 0: f(0, y) = -y^3.
    assert f.substitute_x([0]) == [0, 0, 0, -1]


def test_upoly_helpers():
    assert upoly_add([1, 2], [0, -2, 5]) == [1, 0, 5]
    assert upoly_mul([1, 1], [1, -1]) == [1, 0, -1]
    assert upoly_mul([], [1, 2]) == []


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.fractions(max_denominator=6), min_size=3, max_size=3),
)
def test_euler_identity_property(d, pt):
    rng = SplitMix64(abs(hash((d, tuple(pt)))) & ((1 << 64) - 1))
    p = HomPoly.from_coeffs(
        d, [Fraction(rng.randint(-9, 9)) for _ in range(monomial_count(d))]
    )
    assert euler_relation_holds(p, pt)
