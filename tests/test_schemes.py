"""Point configurations, membership rows, genericity, random sampling."""

import hashlib
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafloci.errors import ConfigError, GenericityError
from sheafloci.exactalg import QMatrix, det as qdet, inverse, kernel, rank_of_rows
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
    CurvilinearPoint,
    SimplePoint,
    _STRATUM_FAT_MULTS,
    _draw_config,
    branch_rows,
    expected_length,
    low_degree_certificate,
    membership_conditions,
    not_on_curve_of_degree,
    random_config,
)

from conftest import (
    REFERENCE_POINTS_D6,
    SEEDED_STRATA,
    evaluation_rows,
    horner_eval,
    identity_matrix,
    matrix_product,
    matrix_vector,
    seeded_stratum_config,
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
        assert SimplePoint.of(4, -6, 2).primitive == (2, -3, 1)
        assert SimplePoint.of(0, Fraction(-1, 3), Fraction(1, 6)).primitive == (0, 2, -1)

    def test_zero_rejected(self):
        with pytest.raises(ConfigError):
            SimplePoint.of(0, 0, 0)


class TestFatPoint:
    def test_standard_double_point_accepted(self):
        fp = standard_double_point()
        assert fp.mult == 2
        assert fp.h == ()

    def test_chart_must_move_support_to_origin_of_chart(self):
        # the frame must send (1:0:0) to the support; any nonzero multiple does
        with pytest.raises(ConfigError, match="move the support"):
            FatPoint.of(SimplePoint.of(0, 1, 0), identity_matrix(3), [], 2)
        scaled = QMatrix.from_rows([[-2, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert FatPoint.of(SimplePoint.of(1, 0, 0), scaled, [], 2).frame == scaled

    def test_singular_chart_rejected(self):
        bad = QMatrix.from_rows([[1, 0, 0], [0, 1, 0], [1, 1, 0]])
        with pytest.raises(ConfigError, match="invertible"):
            FatPoint.of(SimplePoint.of(1, 0, 0), bad, [], 2)

    def test_h_constraints(self):
        with pytest.raises(ConfigError):
            standard_double_point(h=(1,))
        with pytest.raises(ConfigError):
            standard_double_point(h=(0, 1, 1), mult=2)
        with pytest.raises(ConfigError):
            standard_double_point(mult=1)

    @pytest.mark.parametrize(
        "coords", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -3, 2), (4, 0, -1), (-6, 10, 15)]
    )
    def test_simple_point_is_the_m1_branch_of_its_frame(self, coords):
        # the integer axes a simple point keeps are those CurvilinearPoint
        # reads off its frame, whose branch is p + y e_(k+1), k = first p_k != 0
        p = SimplePoint.of(*coords)
        generic = CurvilinearPoint.axes.func(p)
        assert tuple(map(tuple, generic)) == tuple(map(tuple, p.axes))
        k = next(i for i in range(3) if p.primitive[i])
        t = [int(i == (k + 1) % 3) for i in range(3)]
        assert p.branch == tuple([a, b] if b else [a] if a else [] for a, b in zip(p.primitive, t))
        assert (p.support, p.h, p.mult) == (p, (), 1)
        assert qdet(p.frame) == p.primitive[k]

    def test_branch_coordinates_identity_chart(self):
        fp = standard_double_point(h=(0, 3), mult=2)
        w0, w1, w2 = fp.branch
        assert w0 == [1]
        assert w1 == [0, 1]
        assert w2 == [0, 3]

    @pytest.mark.parametrize(
        "d,seed,mults",
        [(d, seed, (2,)) for d, seed in ((5, 1), (6, 2), (7, 3), (8, 4))]
        + [(6, seed, mults) for seed, mults in ((1, (3,)), (2, (4,)), (3, (5,)), (4, (3, 2)))],
        ids=lambda v: "+".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_branch_coordinates_are_the_frame_times_the_branch(self, d, seed, mults):
        if mults == (2,):
            cfg = random_config(d, seed, stratum="double")
        else:
            cfg = _draw_config(d, seed, mults)
        assert sorted(fp.mult for fp in cfg.fat) == sorted(mults)
        for fp in cfg.fat:
            # (1, y, h(y)) coefficient by coefficient, then frame times it
            n = max(2, len(fp.h))
            branch = [
                [Fraction(k == 0) for k in range(n)],
                [Fraction(k == 1) for k in range(n)],
                [Fraction(fp.h[k]) if k < len(fp.h) else Fraction(0) for k in range(n)],
            ]
            expected = []
            for i in range(3):
                w = [sum(fp.frame.get(i, j) * branch[j][k] for j in range(3)) for k in range(n)]
                while w and w[-1] == 0:
                    w.pop()
                expected.append(w)
            # cleared over one common denominator
            common = lcm(*(c.denominator for w in expected for c in w))
            assert list(fp.branch) == [[c * common for c in w] for w in expected]


class TestConfigValidation:
    def test_reference_config_valid(self):
        cfg = ref_config()
        assert len(membership_conditions(cfg, 6)) == expected_length(6) == 10
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
    def test_rows_are_pinned(self):
        # M at the fibre's degree d, the Kronecker resolution's d - 2 and
        # the admissibility test's d - 3: the fibre members, the kernel
        # and every certificate rest on these exact bytes
        cfgs = [seeded_stratum_config(*p.values) for p in SEEDED_STRATA] + [ref_config()]
        digest = hashlib.sha256()
        for cfg in cfgs:
            for k in (cfg.degree, cfg.degree - 2, cfg.degree - 3):
                digest.update(repr(membership_conditions(cfg, k)).encode())
        assert digest.hexdigest() == (
            "22b596dea8431b233541525d7d40e5fba4eb2042f7f64eae860cb83432740533"
        )

    def test_simple_row_at_standard_point_is_indicator(self):
        # At (1:0:0) only x0^k survives, the first monomial in the order.
        row = branch_rows(SimplePoint.of(1, 0, 0), 5, [0])[0]
        assert row[0] == 1
        assert all(c == 0 for c in row[1:])

    def test_simple_row_matches_direct_evaluation(self):
        p = SimplePoint.of(2, -1, 3)
        row = branch_rows(p, 4, [0])[0]
        for i, exp in enumerate(monomials(4)):
            mono = HomPoly.monomial(4, exp)
            assert row[i] == horner_eval(mono, p.coords)

    def test_simple_rows_agree_with_oracle_matrix(self):
        pts = [SimplePoint.of(*p) for p in REFERENCE_POINTS_D6]
        lib = [branch_rows(p, 3, [0])[0] for p in pts]
        assert lib == evaluation_rows(REFERENCE_POINTS_D6, 3)

    def test_double_point_rows_standard_position(self):
        # (x - h(y), y^2) with h = 0 at (1:0:0): membership in degree d means
        # the coefficients of x0^d and x0^(d-1) x1 vanish.
        d = 5
        fp = standard_double_point()
        rows = branch_rows(fp, d, range(fp.mult))
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
        rows = branch_rows(fp, d, range(fp.mult))
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
        assert len(ker) == monomial_count(d) - expected_length(d)
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
        ginv = inverse(g)
        fp_std = standard_double_point()
        support = SimplePoint(tuple(matrix_vector(ginv, fp_std.support.coords)))
        frame = QMatrix.from_rows(matrix_product(ginv.row_lists(), fp_std.frame.row_lists()))
        fp_moved = FatPoint.of(support, frame, fp_std.h, 2)
        rows_std = QMatrix.from_rows(branch_rows(fp_std, d, range(fp_std.mult)))
        rows_moved = QMatrix.from_rows(branch_rows(fp_moved, d, range(fp_moved.mult)))
        # Pull back: f in ideal at moved point iff f(g^{-1} .) in ideal at std.
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
        from sheafloci import exactalg, serialize
        from sheafloci.linsys import fibre
        from sheafloci.singloci import locus_report

        calls = []

        def counted(m):
            calls.append(m.rows)
            return inverse(m)

        monkeypatch.setattr(exactalg, "inverse", counted)
        monkeypatch.setattr(serialize, "inverse", counted)
        assert not hasattr(schemes, "inverse")
        # a draw keeps each support's frame, and a report reads it
        cfg = _draw_config(7, 3, (3, 2))
        locus_report(fibre(cfg))
        assert calls == []
        # a write inverts each frame, and a read each chart
        payload = serialize.config_to_dict(cfg)
        assert calls == [3, 3]
        assert serialize.config_from_dict(payload) == cfg
        assert calls == [3, 3, 3, 3]


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
            assert len(membership_conditions(cfg, d)) == expected_length(d)
            assert not_on_curve_of_degree(cfg, d - 3)

    def test_double_stratum_properties(self):
        for d in (4, 5, 6):
            cfg = random_config(d, 7, stratum="double")
            assert cfg.stratum() == "double"
            assert len(cfg.fat) == 1
            assert cfg.fat[0].mult == 2
            assert len(membership_conditions(cfg, d)) == expected_length(d)
            assert not_on_curve_of_degree(cfg, d - 3)

    @pytest.mark.parametrize(
        "stratum,mults", [("generic", ()), ("double", (2,))], ids=["generic", "double"]
    )
    def test_stratum_draws_its_fat_multiplicities(self, stratum, mults):
        assert _STRATUM_FAT_MULTS[stratum] == mults
        for d, seed in ((4, 9), (6, 7), (7, 3)):
            cfg = random_config(d, seed, stratum)
            assert tuple(fp.mult for fp in cfg.fat) == mults
            assert cfg == _draw_config(d, seed, mults)

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
