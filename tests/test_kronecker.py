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
from sheafloci.poly import HomPoly, monomial_count, parse_homogeneous
from sheafloci.rng import SplitMix64
from sheafloci.schemes import (
    PointConfig,
    SimplePoint,
    membership_conditions,
    random_config,
)

from conftest import (
    REFERENCE_POINTS_D6,
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
            assert ker.cols >= 1

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

    def test_zero_determinant_raises(self):
        res = kronecker_from_points(standard_d4_config())
        zero_quad = tuple(HomPoly.zero(2) for _ in range(res.phi.nrows))
        with pytest.raises(DegenerateError):
            curve_from_pair(zero_quad, res.phi)

    def test_pair_from_curve_round_trip(self):
        cfg = ref_config()
        fib = fibre(cfg)
        res = kronecker_from_points(cfg)
        f = fib.element(random_weights(SplitMix64(42), fib.proj_dim + 1))
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
        assert kernel(system).cols == 3 * (n - 1)
        assert rank_of_rows(system.row_lists()) == 3 * 4

    def test_sheaf_matrix_validation(self):
        res = kronecker_from_points(standard_d4_config())
        with pytest.raises(ShapeError):
            SheafMatrix((HomPoly.zero(2),), res.phi)
        with pytest.raises(ShapeError):
            SheafMatrix(
                tuple(HomPoly.zero(3) for _ in range(res.phi.nrows)), res.phi
            )
