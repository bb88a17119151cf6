"""Point configurations, membership rows, genericity, random sampling."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafloci.errors import ConfigError, GenericityError
from sheafloci.exactalg import QMatrix, inverse, kernel, rank_of_rows
from sheafloci.poly import (
    HomPoly,
    monomial_count,
    monomial_index,
    monomials,
    substitute_linear,
)
from sheafloci.schemes import (
    FatPoint,
    PointConfig,
    SimplePoint,
    collinear,
    expected_length,
    fat_point_rows,
    length,
    low_degree_certificate,
    membership_conditions,
    not_on_curve_of_degree,
    random_config,
    simple_point_row,
)

from conftest import (
    REFERENCE_POINTS_D6,
    evaluation_rows,
    horner_eval,
    identity_matrix,
    matrix_product,
    random_fat_config,
)


def ref_config():
    return PointConfig.of(6, [SimplePoint.of(*p) for p in REFERENCE_POINTS_D6])


def standard_double_point(h=(0,), mult=2):
    return FatPoint.of(
        SimplePoint.of(1, 0, 0), identity_matrix(3), [Fraction(c) for c in h], mult
    )


class TestSimplePoint:
    def test_proportional_points_are_equal(self):
        assert SimplePoint.of(1, 2, 3) == SimplePoint.of(2, 4, 6)
        assert SimplePoint.of(-1, -2, -3) == SimplePoint.of(1, 2, 3)
        assert SimplePoint.of(Fraction(1, 2), 1, 0) == SimplePoint.of(1, 2, 0)
        assert hash(SimplePoint.of(1, 2, 3)) == hash(SimplePoint.of(-3, -6, -9))

    def test_distinct_points_differ(self):
        assert SimplePoint.of(1, 0, 0) != SimplePoint.of(0, 1, 0)
        assert SimplePoint.of(1, 1, 0) != SimplePoint.of(1, -1, 0)

    def test_canonical_is_primitive(self):
        assert SimplePoint.of(4, -6, 2).canonical() == (2, -3, 1)
        assert SimplePoint.of(0, Fraction(-1, 3), Fraction(1, 6)).canonical() == (0, 2, -1)

    def test_zero_rejected(self):
        with pytest.raises(ConfigError):
            SimplePoint.of(0, 0, 0)


class TestFatPoint:
    def test_standard_double_point_accepted(self):
        fp = standard_double_point()
        assert fp.mult == 2
        assert fp.h == ()

    def test_chart_must_move_support_to_origin_of_chart(self):
        with pytest.raises(ConfigError):
            FatPoint.of(SimplePoint.of(0, 1, 0), identity_matrix(3), [], 2)

    def test_singular_chart_rejected(self):
        bad = QMatrix.from_rows([[1, 0, 0], [0, 1, 0], [1, 1, 0]])
        with pytest.raises(ConfigError):
            FatPoint.of(SimplePoint.of(1, 0, 0), bad, [], 2)

    def test_h_constraints(self):
        with pytest.raises(ConfigError):
            standard_double_point(h=(1,))
        with pytest.raises(ConfigError):
            standard_double_point(h=(0, 1, 1), mult=2)
        with pytest.raises(ConfigError):
            standard_double_point(mult=1)

    def test_branch_coordinates_identity_chart(self):
        fp = standard_double_point(h=(0, 3), mult=2)
        w0, w1, w2 = fp.branch_coordinates()
        assert w0 == [1]
        assert w1 == [0, 1]
        assert w2 == [0, 3]


class TestConfigValidation:
    def test_reference_config_valid(self):
        cfg = ref_config()
        assert length(cfg) == expected_length(6) == 10
        assert cfg.stratum() == "generic"

    def test_wrong_length_reports_both_numbers(self):
        pts = [SimplePoint.of(*p) for p in REFERENCE_POINTS_D6[:9]]
        with pytest.raises(ConfigError, match=r"9.*10"):
            PointConfig.of(6, pts)

    def test_degree_floor(self):
        with pytest.raises(ConfigError):
            PointConfig.of(3, [SimplePoint.of(1, 0, 0)])

    def test_coincident_supports_rejected(self):
        pts = [SimplePoint.of(*p) for p in REFERENCE_POINTS_D6[:-1]]
        pts.append(SimplePoint.of(2, 0, 0))
        with pytest.raises(ConfigError, match="coincide"):
            PointConfig.of(6, pts)

    def test_fat_support_clash_rejected(self):
        fp = standard_double_point()
        pts = [SimplePoint.of(*p) for p in REFERENCE_POINTS_D6[:8]]
        with pytest.raises(ConfigError, match="coincide"):
            PointConfig.of(6, pts, [fp])

    def test_point_lookup_is_one_based(self):
        cfg = ref_config()
        kind, p = cfg.point(1)
        assert kind == "simple"
        assert p == SimplePoint.of(1, 0, 0)
        with pytest.raises(ConfigError):
            cfg.point(0)
        with pytest.raises(ConfigError):
            cfg.point(11)

    def test_stratum_classification(self):
        pts = [SimplePoint.of(*p) for p in REFERENCE_POINTS_D6[1:9]]
        cfg = PointConfig.of(6, pts, [standard_double_point()])
        assert cfg.stratum() == "double"
        fp3 = FatPoint.of(SimplePoint.of(1, 0, 0), identity_matrix(3), [], 3)
        cfg3 = PointConfig.of(6, [SimplePoint.of(*p) for p in REFERENCE_POINTS_D6[1:8]], [fp3])
        assert cfg3.stratum() == "deep"


class TestMembershipRows:
    def test_simple_row_at_standard_point_is_indicator(self):
        # At (1:0:0) only x0^k survives, the first monomial in the order.
        row = simple_point_row(SimplePoint.of(1, 0, 0), 5)
        assert row[0] == 1
        assert all(c == 0 for c in row[1:])

    def test_simple_row_matches_direct_evaluation(self):
        p = SimplePoint.of(2, -1, 3)
        row = simple_point_row(p, 4)
        for i, exp in enumerate(monomials(4)):
            mono = HomPoly.monomial(4, exp)
            assert row[i] == horner_eval(mono, p.coords)

    def test_simple_rows_agree_with_oracle_matrix(self):
        pts = [SimplePoint.of(*p) for p in REFERENCE_POINTS_D6]
        lib = [simple_point_row(p, 3) for p in pts]
        assert lib == evaluation_rows(REFERENCE_POINTS_D6, 3)

    def test_double_point_rows_standard_position(self):
        # (x - h(y), y^2) with h = 0 at (1:0:0): membership in degree d means
        # the coefficients of x0^d and x0^(d-1) x1 vanish.
        d = 5
        fp = standard_double_point()
        rows = fat_point_rows(fp, d)
        i0 = monomial_index(d, (d, 0, 0))
        i1 = monomial_index(d, (d - 1, 1, 0))
        for j, target in enumerate((i0, i1)):
            assert rows[j][target] == 1
            assert all(c == 0 for k, c in enumerate(rows[j]) if k != target)

    def test_double_point_rows_with_slope(self):
        # h = 2y tilts the branch: x = 2y means x2 = 2 x1 to first order, so
        # the order-1 row pairs x0^(d-1) x1 with 2 x0^(d-1) x2.
        d = 4
        fp = standard_double_point(h=(0, 2))
        rows = fat_point_rows(fp, d)
        i0 = monomial_index(d, (d, 0, 0))
        assert rows[0][i0] == 1
        assert sum(1 for c in rows[0] if c != 0) == 1
        i1 = monomial_index(d, (d - 1, 1, 0))
        i2 = monomial_index(d, (d - 1, 0, 1))
        assert rows[1][i1] == 1
        assert rows[1][i2] == 2
        assert sum(1 for c in rows[1] if c != 0) == 2

    def test_membership_annihilates_curves_through_scheme(self):
        # x2 * (conic through the four remaining base points) vanishes on any
        # scheme contained in that union; build one directly instead.
        d = 5
        fp = standard_double_point()
        others = [
            SimplePoint.of(0, 1, 0),
            SimplePoint.of(0, 0, 1),
            SimplePoint.of(1, 1, 1),
            SimplePoint.of(1, 2, 3),
        ]
        cfg = PointConfig.of(d, others, [fp])
        ker = kernel(QMatrix.from_rows(membership_conditions(cfg, d)))
        assert len(ker) == monomial_count(d) - length(cfg)
        # Every kernel column really does vanish to order 2 along the branch
        # and at the simple points.
        for v in ker:
            f = HomPoly.from_coeffs(d, v)
            for p in others:
                assert horner_eval(f, p.coords) == 0
            assert horner_eval(f, (1, 0, 0)) == 0

    def test_fat_rows_change_under_chart(self):
        # Same double point expressed through a nontrivial chart gives the
        # same row space for the membership conditions.
        d = 4
        g = QMatrix.from_rows([[1, 2, -1], [0, 1, 3], [0, 0, 1]])
        fp_std = standard_double_point()
        support = SimplePoint(tuple(inverse(g).apply(fp_std.support.coords)))
        chart = QMatrix.from_rows(matrix_product(fp_std.chart.row_lists(), g.row_lists()))
        fp_moved = FatPoint.of(support, chart, fp_std.h, 2)
        rows_std = QMatrix.from_rows(fat_point_rows(fp_std, d))
        rows_moved = QMatrix.from_rows(fat_point_rows(fp_moved, d))
        # Pull back: f in ideal at moved point iff f(g^{-1} .) in ideal at std.
        ginv = inverse(g)
        for j in range(rows_std.rows):
            func = rows_std.row(j)
            pulled = []
            for i, exp in enumerate(monomials(d)):
                mono = HomPoly.monomial(d, exp)
                moved = substitute_linear(mono, ginv)
                pulled.append(sum(func[t] * moved.coeffs[t] for t in range(len(func))))
            stacked = rows_moved.row_lists() + [pulled]
            assert rank_of_rows(stacked) == rank_of_rows(rows_moved.row_lists())


class TestGenericity:
    def test_reference_config_is_generic(self):
        cfg = ref_config()
        assert not_on_curve_of_degree(cfg, 3)
        assert low_degree_certificate(cfg, 3) is None

    def test_conic_configuration_fails(self):
        # Six points on the conic x0 x2 = x1^2 for d = 5 (l = 6).
        pts = [SimplePoint.of(1, t, t * t) for t in range(6)]
        cfg = PointConfig.of(5, pts)
        assert not not_on_curve_of_degree(cfg, 2)
        cert = low_degree_certificate(cfg, 2)
        assert cert is not None
        for p in pts:
            assert horner_eval(cert, p.coords) == 0

    def test_certificate_for_collinear_d4(self):
        pts = [SimplePoint.of(1, t, 0) for t in range(3)]
        cfg = PointConfig.of(4, pts)
        cert = low_degree_certificate(cfg, 1)
        assert cert is not None
        assert cert.coeffs[monomial_index(1, (0, 0, 1))] != 0


    def test_require_generic_takes_a_kernel_only_off_generic(self, monkeypatch):
        import sheafloci.schemes as schemes

        calls = []

        def counted_kernel(m):
            calls.append(m.rows)
            return kernel(m)

        monkeypatch.setattr(schemes, "kernel", counted_kernel)
        schemes.require_generic(ref_config())
        assert calls == []
        conic = PointConfig.of(5, [SimplePoint.of(1, t, t * t) for t in range(6)])
        with pytest.raises(GenericityError) as info:
            schemes.require_generic(conic)
        assert calls == [6]
        assert info.value.certificate == low_degree_certificate(conic, 2)

    def test_random_config_and_fibre_rank_the_gate_once(self, monkeypatch):
        import sheafloci.schemes as schemes
        from sheafloci.linsys import fibre

        calls = []

        def counted(cfg, k):
            calls.append(k)
            return not_on_curve_of_degree(cfg, k)

        monkeypatch.setattr(schemes, "not_on_curve_of_degree", counted)
        fibre(random_config(7, 8001))
        assert calls == [4]
        # a configuration built afresh is ranked by the fibre's own gate
        fibre(ref_config())
        assert calls == [4, 3]

    def test_chart_is_inverted_once_per_fat_point(self, monkeypatch):
        import sheafloci.schemes as schemes
        from sheafloci.linsys import fibre
        from sheafloci.singloci import locus_report

        calls = []

        def counted(m):
            calls.append(m.rows)
            return inverse(m)

        monkeypatch.setattr(schemes, "inverse", counted)
        locus_report(fibre(random_config(7, 3, "double")))
        # one inverse builds the chart, one gives the fat point's frame
        assert calls == [3, 3]


class TestCollinear:
    def test_reference_examples(self):
        pts = [SimplePoint.of(*p) for p in REFERENCE_POINTS_D6]
        # Points 2..5 lie on x0 = 0.
        assert collinear(pts[1], pts[2], pts[3])
        assert collinear(pts[1], pts[3], pts[4])
        # Points 1, 2, 6 span: (1,0,0), (0,1,0), (1,-2,0) are on x2 = 0.
        assert collinear(pts[0], pts[1], pts[5])
        assert not collinear(pts[0], pts[1], pts[2])

    def test_distinctness_required(self):
        p = SimplePoint.of(1, 2, 3)
        with pytest.raises(ConfigError):
            collinear(p, SimplePoint.of(2, 4, 6), SimplePoint.of(0, 1, 0))


class TestRandomConfig:
    def test_deterministic_for_fixed_seed(self):
        a = random_config(5, 17)
        b = random_config(5, 17)
        assert a == b

    def test_distinct_seeds_differ(self):
        assert random_config(5, 1) != random_config(5, 2)

    def test_generic_stratum_properties(self):
        for d in (4, 5, 6):
            cfg = random_config(d, 99)
            assert cfg.stratum() == "generic"
            assert length(cfg) == expected_length(d)
            assert not_on_curve_of_degree(cfg, d - 3)

    def test_double_stratum_properties(self):
        for d in (4, 5, 6):
            cfg = random_config(d, 7, stratum="double")
            assert cfg.stratum() == "double"
            assert len(cfg.fat) == 1
            assert cfg.fat[0].mult == 2
            assert length(cfg) == expected_length(d)
            assert not_on_curve_of_degree(cfg, d - 3)

    @pytest.mark.parametrize(
        "stratum,mults", [("generic", ()), ("double", (2,))], ids=["generic", "double"]
    )
    def test_random_fat_config_draws_like_random_config(self, stratum, mults):
        for d, seed in ((4, 9), (6, 7), (7, 3)):
            assert random_fat_config(d, seed, mults) == random_config(d, seed, stratum)

    def test_unknown_stratum_rejected(self):
        with pytest.raises(ConfigError):
            random_config(5, 3, stratum="triple")

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_membership_kernel_dim_is_3d(self, seed):
        d = 4
        cfg = random_config(d, seed)
        m = QMatrix.from_rows(membership_conditions(cfg, d))
        assert len(kernel(m)) == monomial_count(d) - expected_length(d)
