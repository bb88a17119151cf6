"""Resolutions by matrices of linear forms and bordered determinants."""

from fractions import Fraction

import pytest

from sheafloci.errors import DegenerateError, NotInFibreError, ShapeError
from sheafloci.exactalg import QMatrix, kernel, rank_of_rows
from sheafloci.kronecker import (
    KroneckerModule,
    SheafMatrix,
    curve_from_pair,
    injectivity_check,
    injectivity_system,
    kronecker_from_points,
    maximal_minors,
    pair_from_curve,
    resolution_check,
    stability_sufficient,
)
from sheafloci.linsys import fibre, random_weights
from sheafloci.poly import HomPoly, det_poly_matrix, monomial_count, parse_homogeneous
from sheafloci.rng import SplitMix64
from sheafloci.schemes import (
    PointConfig,
    SimplePoint,
    membership_conditions,
    random_config,
)

from conftest import (
    REFERENCE_POINTS_D6,
    ExactFibre,
    cofactor_det,
    horner_eval,
    naive_rank,
    proportional_pair_module,
    zero_column_module,
)


def ref_config():
    return PointConfig.of(6, [SimplePoint.of(*p) for p in REFERENCE_POINTS_D6])


def standard_d4_config():
    return PointConfig.of(
        4, [SimplePoint.of(1, 0, 0), SimplePoint.of(0, 1, 0), SimplePoint.of(0, 0, 1)]
    )


def lin(a, b, c):
    return HomPoly.from_coeffs(1, (a, b, c))


class TestKroneckerModule:
    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            KroneckerModule.from_rows([[lin(1, 0, 0)]])
        with pytest.raises(ShapeError):
            KroneckerModule.from_rows(
                [[lin(1, 0, 0), lin(0, 1, 0)], [lin(0, 0, 1), lin(1, 1, 1)]]
            )
        with pytest.raises(ShapeError):
            KroneckerModule.from_rows([[lin(1, 0, 0)], [parse_homogeneous("x0*x1")]])

    def test_two_row_minors(self):
        # Column (x0, x1): the signed minors are (x1, -x0).
        phi = KroneckerModule.from_rows([[lin(1, 0, 0)], [lin(0, 1, 0)]])
        m = maximal_minors(phi)
        assert m[0] == parse_homogeneous("x1")
        assert m[1] == parse_homogeneous("-x0")
        assert resolution_check(phi)

    def test_column_accessors(self):
        phi = KroneckerModule.from_rows(
            [
                [lin(1, 0, 0), lin(0, 1, 0)],
                [lin(0, 0, 1), lin(1, 1, 0)],
                [lin(1, 2, 3), lin(0, 1, 1)],
            ]
        )
        assert phi.nrows == 3
        assert phi.ncols == 2
        assert phi.curve_degree == 4
        assert phi.column(1) == (lin(0, 1, 0), lin(1, 1, 0), lin(0, 1, 1))

    def test_duplicated_row_keeps_identity_loses_stability(self):
        row = [lin(1, 0, 0), lin(0, 1, 0)]
        phi = KroneckerModule.from_rows(
            [row, row, [lin(0, 0, 1), lin(1, 1, 1)]]
        )
        assert resolution_check(phi)
        assert not stability_sufficient(maximal_minors(phi))

    def test_resolution_check_rejects_wrong_minor_count(self):
        phi = kronecker_from_points(random_config(6, 1)).phi
        m = maximal_minors(phi)
        assert resolution_check(phi, minors=m)
        for wrong in ([], m[:-1], m + [m[0]]):
            with pytest.raises(ShapeError):
                resolution_check(phi, minors=wrong)
        with pytest.raises(ShapeError):
            resolution_check(phi, generators=m[:-1])


class TestFromPoints:
    @pytest.mark.parametrize("d,seed", [(4, 2), (5, 3), (6, 5)])
    def test_resolution_from_random_points(self, d, seed):
        cfg = random_config(d, seed)
        res = kronecker_from_points(cfg)
        n = d - 1
        assert res.phi.nrows == n
        assert res.phi.ncols == n - 1
        assert res.degree == d
        assert len(res.generators) == n
        assert all(g.degree == d - 2 for g in res.generators)
        assert resolution_check(res.phi, generators=res.generators)

    def test_minors_vanish_on_configuration(self):
        cfg = ref_config()
        res = kronecker_from_points(cfg)
        m = QMatrix.from_rows(membership_conditions(cfg, 4))
        for minor in maximal_minors(res.phi):
            assert all(v == 0 for v in m.apply(minor.coeffs))

    def test_minors_span_degree_d_minus_2_kernel(self):
        cfg = ref_config()
        res = kronecker_from_points(cfg)
        minors = maximal_minors(res.phi)
        minor_rows = [list(p.coeffs) for p in minors]
        assert rank_of_rows(minor_rows) == 5
        gen_rows = [list(g.coeffs) for g in res.generators]
        assert rank_of_rows(minor_rows + gen_rows) == 5

    def test_double_stratum_resolves_too(self):
        cfg = random_config(5, 21, stratum="double")
        res = kronecker_from_points(cfg)
        assert resolution_check(res.phi, generators=res.generators)
        assert injectivity_check(res.phi)


class TestInjectivity:
    def test_point_derived_modules_are_injective(self):
        for d, seed in ((4, 1), (5, 8), (6, 13)):
            cfg = random_config(d, seed)
            res = kronecker_from_points(cfg)
            assert injectivity_check(res.phi)
            assert rank_of_rows(injectivity_system(res.phi)) == 3 * (d - 2)

    def test_zero_column_defeats_injectivity(self):
        for d, seed in ((4, 4), (6, 9)):
            res = kronecker_from_points(random_config(d, seed))
            broken = zero_column_module(res.phi, col=0)
            assert not injectivity_check(broken)

    def test_proportional_pair_defeats_injectivity(self):
        for d, seed in ((4, 6), (6, 14)):
            res = kronecker_from_points(random_config(d, seed))
            n = res.phi.nrows
            scalars = [i + 1 for i in range(n)]
            broken = proportional_pair_module(
                res.phi, lin(1, 2, 0), lin(0, 1, -1), scalars
            )
            assert not injectivity_check(broken)
            ker = kernel(QMatrix.from_rows(injectivity_system(broken)))
            assert len(ker) >= 1

    @pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
    def test_check_matches_naive_rank(self, d):
        # the check ranks the system's columns as rows; the oracle ranks
        # its rows by first-nonzero Fraction elimination
        phi = kronecker_from_points(random_config(d, 60 + d)).phi
        scalars = [i + 1 for i in range(phi.nrows)]
        modules = [
            phi,
            zero_column_module(phi, col=d % phi.ncols),
            proportional_pair_module(phi, lin(1, 2, 0), lin(0, 1, -1), scalars),
        ]
        verdicts = []
        for module in modules:
            full = naive_rank(injectivity_system(module)) == 3 * module.ncols
            assert injectivity_check(module) == full
            verdicts.append(full)
        assert verdicts == [True, False, False]

    def test_witness_for_zero_column(self):
        # x0 placed in the zeroed slot solves the syzygy system.
        res = kronecker_from_points(standard_d4_config())
        broken = zero_column_module(res.phi, col=1)
        sys = QMatrix.from_rows(injectivity_system(broken))
        witness = [Fraction(0)] * (3 * broken.ncols)
        witness[3 * 1 + 0] = Fraction(1)
        assert all(v == 0 for v in sys.apply(witness))


class TestBorderedDeterminants:
    def test_curve_from_pair_matches_minor_expansion(self):
        res = kronecker_from_points(standard_d4_config())
        n = res.phi.nrows
        rng = SplitMix64(77)
        minors = maximal_minors(res.phi)
        for _ in range(5):
            quad = []
            for _ in range(n):
                coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(6)]
                quad.append(HomPoly.from_coeffs(2, coeffs))
            f = curve_from_pair(quad, res.phi)
            expansion = HomPoly.zero(4)
            for q, m in zip(quad, minors):
                expansion = expansion + q * m
            assert f == expansion

    def test_determinant_lies_in_fibre(self):
        cfg = ref_config()
        fib = fibre(cfg)
        res = kronecker_from_points(cfg)
        rng = SplitMix64(3)
        quad = []
        for _ in range(res.phi.nrows):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
            quad.append(HomPoly.from_coeffs(2, coeffs))
        f = curve_from_pair(quad, res.phi)
        assert fib.contains(f)

    def test_curve_from_pair_rejects_non_quadratic_column(self):
        phi = kronecker_from_points(random_config(6, 1)).phi
        rng = SplitMix64(5)
        for degree in (1, 3):
            width = monomial_count(degree)
            quad = [
                HomPoly.from_coeffs(degree, [rng.randint(-4, 4) for _ in range(width)])
                for _ in range(phi.nrows)
            ]
            with pytest.raises(ShapeError):
                curve_from_pair(quad, phi)

    def test_zero_determinant_raises(self):
        res = kronecker_from_points(standard_d4_config())
        zero_quad = tuple(HomPoly.zero(2) for _ in range(res.phi.nrows))
        with pytest.raises(DegenerateError):
            curve_from_pair(zero_quad, res.phi)

    def test_pair_from_curve_round_trip(self):
        cfg = ref_config()
        fib = fibre(cfg)
        res = kronecker_from_points(cfg)
        f = ExactFibre(fib).element(random_weights(SplitMix64(42), fib.proj_dim + 1))
        sheaf = pair_from_curve(res.phi, f)
        assert sheaf.curve() == f

    def test_pair_from_curve_rejects_outsiders(self):
        res = kronecker_from_points(standard_d4_config())
        with pytest.raises(NotInFibreError):
            pair_from_curve(res.phi, parse_homogeneous("x0^4"))

    def test_pair_from_curve_rejects_wrong_degree(self):
        res = kronecker_from_points(standard_d4_config())
        with pytest.raises(ShapeError):
            pair_from_curve(res.phi, parse_homogeneous("x0^3"))

    def test_bordering_freedom_has_dimension_3n_minus_3(self):
        # The homogeneous solutions of sum q_i m_i = 0 come from adding
        # phi-column combinations with linear coefficients: 3(n-1) of them.
        cfg = standard_d4_config()
        res = kronecker_from_points(cfg)
        n = res.phi.nrows
        minors = maximal_minors(res.phi)
        from sheafloci.poly import monomials

        cols = []
        for m in minors:
            for t in monomials(2):
                cols.append((HomPoly.monomial(2, t) * m).coeffs)
        system = QMatrix.from_rows(
            [[cols[c][r] for c in range(6 * n)] for r in range(monomial_count(4))],
            cols=6 * n,
        )
        assert len(kernel(system)) == 3 * (n - 1)
        assert rank_of_rows(system.row_lists()) == 3 * 4

    def test_sheaf_matrix_validation(self):
        res = kronecker_from_points(standard_d4_config())
        with pytest.raises(ShapeError):
            SheafMatrix((HomPoly.zero(2),), res.phi)
        with pytest.raises(ShapeError):
            SheafMatrix(
                tuple(HomPoly.zero(3) for _ in range(res.phi.nrows)), res.phi
            )


def random_linear(rng, zero_share):
    """Seeded linear form with small integer coefficients, or zero."""
    if rng.randint(1, 100) <= zero_share:
        return HomPoly.zero(1)
    return lin(*(rng.randint(-5, 5) for _ in range(3)))


def seeded_points(rng, count):
    return [tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(count)]


def pointwise_det(mat, pt):
    return cofactor_det([[horner_eval(e, pt) for e in row] for row in mat])


class TestMinorsDifferential:
    """maximal_minors and det_poly_matrix against cofactor_det at points.

    Evaluating a polynomial determinant at a point commutes with taking
    it, so each signed minor evaluated by Horner must equal (-1)^i times
    the literal cofactor determinant of the evaluated submatrix.
    """

    def assert_minors_match(self, phi, rng, npoints=2):
        minors = maximal_minors(phi)
        assert len(minors) == phi.nrows
        assert all(m.degree == phi.nrows - 1 for m in minors)
        for pt in seeded_points(rng, npoints):
            for i, m in enumerate(minors):
                sub = [row for r, row in enumerate(phi.entries) if r != i]
                expected = pointwise_det(sub, pt)
                assert horner_eval(m, pt) == (-expected if i % 2 else expected)

    @pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
    def test_seeded_modules(self, d):
        phi = kronecker_from_points(random_config(d, 3)).phi
        self.assert_minors_match(phi, SplitMix64(d))

    @pytest.mark.parametrize("d", [5, 6])
    def test_broken_modules(self, d):
        phi = kronecker_from_points(random_config(d, 4)).phi
        zeroed = zero_column_module(phi, col=1)
        assert all(m.is_zero() for m in maximal_minors(zeroed))
        self.assert_minors_match(zeroed, SplitMix64(d))
        scalars = [i + 1 for i in range(phi.nrows)]
        pair = proportional_pair_module(phi, lin(1, 2, 0), lin(0, 1, -1), scalars)
        self.assert_minors_match(pair, SplitMix64(d + 1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_random_tall_matrices_with_zero_entries(self, n):
        rng = SplitMix64(100 + n)
        for _ in range(3):
            rows = [[random_linear(rng, 30) for _ in range(n - 1)] for _ in range(n)]
            self.assert_minors_match(KroneckerModule.from_rows(rows), rng)

    def test_square_matrix_with_quadratic_column(self):
        rng = SplitMix64(7)
        for n in (2, 3, 4, 5):
            for quad_col in (0, n - 1):
                mat = [[random_linear(rng, 20) for _ in range(n)] for _ in range(n)]
                for row in mat:
                    row[quad_col] = HomPoly.from_coeffs(
                        2, [rng.randint(-4, 4) for _ in range(6)]
                    )
                det = det_poly_matrix(mat)
                assert det.degree == n + 1
                for pt in seeded_points(rng, 2):
                    assert horner_eval(det, pt) == pointwise_det(mat, pt)

    @pytest.mark.parametrize("d", [5, 6])
    def test_bordered_determinant(self, d):
        phi = kronecker_from_points(random_config(d, 2)).phi
        rng = SplitMix64(d)
        quad = [
            HomPoly.from_coeffs(2, [rng.randint(-4, 4) for _ in range(6)])
            for _ in range(phi.nrows)
        ]
        f = curve_from_pair(quad, phi)
        mat = [[q, *row] for q, row in zip(quad, phi.entries)]
        for pt in seeded_points(rng, 2):
            assert horner_eval(f, pt) == pointwise_det(mat, pt)

    def test_rank_deficient_square_matrix_gives_zero_of_its_degree(self):
        rng = SplitMix64(9)
        q = HomPoly.from_coeffs(2, [rng.randint(-4, 4) for _ in range(6)])
        a, b, c = (random_linear(rng, 0) for _ in range(3))
        z = HomPoly.zero(1)
        zero_column = [[q, a, z], [q, b, z], [q, c, z]]
        repeated_row = [[q, a, b], [q * 2, a * 2, b * 2], [q, c, a]]
        for mat in (zero_column, repeated_row):
            det = det_poly_matrix(mat)
            assert det.is_zero()
            assert det.degree == 4


class TestMinorsFastPath:
    """One column expansion serves all n minors of an n x (n-1) module.

    Each row set S of at most n - 2 rows is extended by the n - |S| rows
    outside it, one form product each: n * (2^(n-1) - 1) products at
    most, within the asserted n * 2^(n-1).  One expansion per minor
    takes up to n * (n-1) * 2^(n-2).
    """

    @pytest.mark.parametrize("d,seed", [(6, 1), (7, 1), (8, 1)])
    def test_products_stay_within_one_expansion(self, d, seed, monkeypatch):
        phi = kronecker_from_points(random_config(d, seed)).phi
        n = phi.nrows
        calls = []
        mul = HomPoly.__mul__

        def counting(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(HomPoly, "__mul__", counting)
        maximal_minors(phi)
        assert 0 < len(calls) <= n * 2 ** (n - 1)
