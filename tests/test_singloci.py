"""Singular-sheaf loci: codimensions, transversality, classification."""

import hashlib
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from sheafloci import exactalg, singloci
from sheafloci.errors import ConfigError, DegenerateError, NotInFibreError
from sheafloci.kronecker import kronecker_from_points
from sheafloci.exactalg import _PRIME as P, QMatrix, det as qdet, insert_row, inverse, rank_of_rows
from sheafloci.linsys import ProjSubspace, fibre, random_weights
from sheafloci.localfree import fat_ideal_free, germ_at_fat_point
from sheafloci.poly import (
    HomPoly,
    monomial_count,
    monomial_index,
    monomials,
    substitute_linear,
)
from sheafloci.rng import SplitMix64
from sheafloci.schemes import (
    FatPoint,
    PointConfig,
    SimplePoint,
    _draw_config,
    _series_rows,
    branch_rows,
    membership_conditions,
    random_config,
)
from sheafloci.serialize import canonical_dumps, report_to_dict, resolution_to_dict
from sheafloci.singloci import (
    SingularLocusReport,
    _cofactors,
    _point_echelon,
    _reduced_minors,
    asserted_violations,
    classify_curve,
    condition_rows,
    impose_singularities,
    locus_report,
    normal_space_dim,
    singular_conditions,
)

from conftest import (
    REFERENCE_POINTS_D6,
    ReadRows,
    SEEDED_STRATA,
    ExactFibre,
    ambient_codim,
    ambient_singular_subspace,
    horner_eval,
    identity_matrix,
    matrix_product,
    matrix_vector,
    naive_rank,
    partial,
    rank_mod_p,
    seeded_stratum_config,
)


def ref_config():
    return PointConfig.of(6, [SimplePoint.of(*p) for p in REFERENCE_POINTS_D6])


UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def gradient_rows(pt, d):
    """The rows of d/dx_0, d/dx_1 and d/dx_2 at the point's s = w(0)."""
    return branch_rows(pt, d, [], UNITS)


def support_det(cfg, ids):
    """The integer 3 x 3 determinant of three points' primitive supports."""
    a, b, c = (cfg.support_of(pid).primitive for pid in ids)
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def standard_d4_config():
    return PointConfig.of(
        4, [SimplePoint.of(1, 0, 0), SimplePoint.of(0, 1, 0), SimplePoint.of(0, 0, 1)]
    )


def transversal(rep, ids):
    """Whether the loci at ids meet in the sum of their codimensions."""
    points = {pid: codim for pid, _kind, codim in rep.point_codims}
    return dict(rep.subset_codims)[ids] == sum(points[pid] for pid in ids)


def newton_interpolate(ts, vs):
    """Monomial coefficients of the interpolating polynomial, exactly."""
    n = len(ts)
    coef = list(vs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (ts[i] - ts[i - j])
    cur = [coef[n - 1]]
    for k in range(n - 2, -1, -1):
        new = [Fraction(0)] * (len(cur) + 1)
        for i, c in enumerate(cur):
            new[i + 1] += c
            new[i] -= c * ts[k]
        new[0] += coef[k]
        cur = new
    return cur


def branch_series(f, fp):
    """Coefficients of f along the fat point's branch, via interpolation.

    Avoids the row machinery entirely: samples the composed function at
    enough rational arguments and interpolates.
    """
    npts = f.degree * fp.mult + 1
    ts = [Fraction(t) for t in range(npts)]
    vs = []
    for t in ts:
        h_t = sum(c * t**k for k, c in enumerate(fp.h))
        pt = matrix_vector(fp.frame, (Fraction(1), t, h_t))
        vs.append(horner_eval(f, pt))
    return newton_interpolate(ts, vs)


def oracle_classify(cfg, f):
    """Singular points of the sheaf, via derivatives and series sampling."""
    out = set()
    for pid in range(1, cfg.npoints + 1):
        kind, data = cfg.point(pid)
        support = data if kind == "simple" else data.support
        grads = [
            horner_eval(partial(f, v), support.coords) for v in range(3)
        ]
        if any(g != 0 for g in grads):
            continue
        if kind == "fat":
            s = branch_series(f, data)
            if s[data.mult] != 0:
                continue
        out.add(pid)
    return out


class TestGradientRows:
    def test_matches_partial_evaluation(self):
        rng = SplitMix64(31)
        for _ in range(20):
            d = 4 + rng.below(3)
            coeffs = [
                Fraction(rng.randint(-9, 9)) for _ in range(len(monomials(d)))
            ]
            f = HomPoly.from_coeffs(d, coeffs)
            pt = SimplePoint.of(
                rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(1, 6)
            )
            rows = gradient_rows(pt, d)
            for v in range(3):
                direct = horner_eval(partial(f, v), pt.primitive)
                assert sum(r * c for r, c in zip(rows[v], coeffs)) == direct

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([0, 0, 1, -1]) | st.integers(-20, 20), min_size=3, max_size=3)
        .filter(any),
        st.integers(1, 10),
    )
    def test_rank_is_three_at_every_point(self, coords, d):
        # normal_space_dim relies on this theorem without ranking the rows
        assert naive_rank(gradient_rows(SimplePoint.of(*coords), d)) == 3

    def test_standard_point_rows_are_indicators(self):
        rows = gradient_rows(SimplePoint.of(1, 0, 0), 4)
        i0 = monomial_index(4, (4, 0, 0))
        i1 = monomial_index(4, (3, 1, 0))
        i2 = monomial_index(4, (3, 0, 1))
        for row, target, scale in ((rows[0], i0, 4), (rows[1], i1, 1), (rows[2], i2, 1)):
            assert row[target] == scale
            assert all(c == 0 for t, c in enumerate(row) if t != target)


class TestSingularConditions:
    def test_simple_point_has_four_rows(self):
        # the gradient along n, s and t, and the order-1 row, which is the t-row
        cfg = ref_config()
        for pid in range(1, cfg.npoints + 1):
            rows = singular_conditions(cfg, pid)
            assert len(rows) == 4 and rows[2] == rows[3]
            assert naive_rank(rows) == 3

    def test_fat_point_has_four_rows(self):
        cfg = random_config(5, 11, stratum="double")
        assert len(singular_conditions(cfg, cfg.npoints)) == 4

    def test_standard_position_span(self):
        # Modulo the fibre, the conditions at (1:0:0) coincide with the
        # coefficient functionals of x0^(d-1) x1 and x0^(d-1) x2.
        cfg = standard_d4_config()
        space = ExactFibre(fibre(cfg)).space
        sc = singular_conditions(cfg, 1)
        block = [space.compress_functional(list(r)) for r in sc]
        n_mono = len(monomials(4))
        indicators = []
        for exp in ((3, 1, 0), (3, 0, 1)):
            row = [Fraction(0)] * n_mono
            row[monomial_index(4, exp)] = Fraction(1)
            indicators.append(space.compress_functional(row))
        assert rank_of_rows(block) == 2
        assert rank_of_rows(indicators) == 2
        assert rank_of_rows(block + indicators) == 2


class TestCodimensions:
    def test_reference_singletons(self):
        fib = fibre(ref_config())
        rep = locus_report(fib, pairs=False)
        assert [pid for pid, _kind, _codim in rep.point_codims] == list(range(1, 11))
        for pid, _kind, codim in rep.point_codims:
            assert codim == 2
            assert normal_space_dim(fib, pid) == 2

    def test_reference_pairs_and_triples(self):
        fib = fibre(ref_config())
        rep = locus_report(
            fib, pairs=False, extra_subsets=[(1, 2), (2, 3), (1, 2, 3)]
        )
        assert dict(rep.subset_codims) == {(1, 2): 4, (2, 3): 4, (1, 2, 3): 6}
        assert transversal(rep, (1, 2))
        assert transversal(rep, (1, 2, 3))

    def test_reference_subset_codims_frozen(self):
        fib = fibre(ref_config())
        rep = locus_report(
            fib, pairs=False, extra_subsets=[(1, 2, 3, 4), (1, 2, 3, 4, 5)]
        )
        assert dict(rep.subset_codims) == {(1, 2, 3, 4): 8, (1, 2, 3, 4, 5): 9}
        assert not transversal(rep, (1, 2, 3, 4, 5))

    @pytest.mark.parametrize(
        "subset", [(), (0, 1), (1, 7), (2, 2)], ids=["empty", "zero", "past-last", "repeated"]
    )
    def test_extra_subsets_name_distinct_ids_in_range(self, subset):
        # an empty subset's report entry would break the report schema
        fib = fibre(random_config(5, 1))
        with pytest.raises(ConfigError, match="subset"):
            locus_report(fib, extra_subsets=[(1, 2), subset])

    def test_double_stratum_fat_point_codim(self):
        for seed in (11, 23):
            cfg = random_config(5, seed, stratum="double")
            fib = fibre(cfg)
            fat_id = cfg.npoints
            rep = locus_report(fib, pairs=False)
            assert rep.point_codims[fat_id - 1] == (fat_id, "fat", 2)
            assert normal_space_dim(fib, fat_id) == 2

    def test_normal_space_rejects_a_wrong_block(self, monkeypatch):
        import sheafloci.singloci as singloci

        fib = fibre(ref_config())
        monkeypatch.setattr(singloci, "_locus_codim", lambda fib, rows, *certificate: 1)
        with pytest.raises(DegenerateError) as err:
            normal_space_dim(fib, 3)
        assert (err.value.expected, err.value.actual) == (2, 1)

    def test_u_row_is_needed_at_fat_point(self):
        # The gradient alone cuts only one condition on the fibre; the
        # order-m functional supplies the second.
        cfg = random_config(5, 11, stratum="double")
        space = ExactFibre(fibre(cfg)).space
        sc = singular_conditions(cfg, cfg.npoints)
        grad_only = [space.compress_functional(list(r)) for r in sc[:3]]
        assert rank_of_rows(grad_only) == 1
        full = [space.compress_functional(list(r)) for r in sc]
        assert rank_of_rows(full) == 2

    def test_singular_subspace_dimensions(self):
        cfg = ref_config()
        fib = fibre(cfg)
        sub = ambient_singular_subspace(fib, 4)
        assert sub.codim == ExactFibre(fib).space.codim + 2
        assert sub.proj_dim == fib.proj_dim - 2
        for v in sub.basis()[:3]:
            f = HomPoly.from_coeffs(6, v)
            assert fib.contains(f)
            assert 4 in classify_curve(fib, f)


class TestClassify:
    def test_imposed_singleton(self):
        fib = fibre(ref_config())
        for pid in (1, 4, 8):
            f = impose_singularities(fib, [pid], SplitMix64(100 + pid))
            got = classify_curve(fib, f)
            assert got == {pid}
            assert got == oracle_classify(fib.config, f)

    def test_imposed_pair(self):
        fib = fibre(ref_config())
        f = impose_singularities(fib, [2, 7], SplitMix64(55))
        got = classify_curve(fib, f)
        assert got == {2, 7}
        assert got == oracle_classify(fib.config, f)

    @pytest.mark.parametrize("d", [5, 6, 7])
    def test_m_prime_is_singular_where_two_loci_meet(self, d):
        # README ("M' is singular"): near a curve singular at exactly p and q,
        # M' is L_p u L_q; the span of the two, its tangent space, is the
        # whole fibre (codim 2 + 2 - 4 = 0), while M' has codim 2
        cfg = random_config(d, d)
        fib = fibre(cfg)
        p, q = 1, cfg.npoints
        f = impose_singularities(fib, [p, q], SplitMix64(d))
        assert classify_curve(fib, f) == {p, q}
        rep = locus_report(fib, pairs=True)
        codims = {pid: codim for pid, _kind, codim in rep.point_codims}
        pairs = {(i, j): codim for i, j, codim in rep.pair_codims}
        assert (codims[p], codims[q], pairs[p, q]) == (2, 2, 4)
        span = ambient_singular_subspace(fib, p).basis() + ambient_singular_subspace(fib, q).basis()
        assert rank_of_rows(span) == fib.proj_dim + 1

    def test_generic_member_is_smooth_on_scheme(self):
        fib = fibre(ref_config())
        f = ExactFibre(fib).element(random_weights(SplitMix64(8), fib.proj_dim + 1))
        assert classify_curve(fib, f) == set()
        assert oracle_classify(fib.config, f) == set()

    def test_matches_oracle_on_double_stratum(self):
        cfg = random_config(5, 11, stratum="double")
        fib = fibre(cfg)
        fat_id = cfg.npoints
        sub = ambient_singular_subspace(fib, fat_id)
        basis = sub.basis()
        hits = 0
        for v in basis:
            f = HomPoly.from_coeffs(5, v)
            if f.is_zero():
                continue
            got = classify_curve(fib, f)
            assert fat_id in got
            assert got == oracle_classify(cfg, f)
            hits += 1
        assert hits > 0

    def test_rejects_outsiders(self):
        fib = fibre(ref_config())
        with pytest.raises(NotInFibreError):
            classify_curve(fib, HomPoly.monomial(6, (6, 0, 0)))
        with pytest.raises(NotInFibreError):
            classify_curve(fib, HomPoly.zero(6))

    def test_fat_point_needs_u_vanishing(self):
        # A fibre member singular at the support but with nonzero order-m
        # coefficient is NOT singular as a sheaf at the fat point.
        cfg = random_config(5, 11, stratum="double")
        fib = fibre(cfg)
        fat_id = cfg.npoints
        sc = singular_conditions(cfg, fat_id)
        sub = ProjSubspace.cut_by(
            membership_conditions(cfg, 5) + [list(r) for r in sc[:3]],
            ExactFibre(fib).space.ambient,
        )
        found = False
        basis = sub.basis()
        u_row = list(sc[3])
        for v in basis:
            f = HomPoly.from_coeffs(5, v)
            if f.is_zero():
                continue
            u_val = sum(r * c for r, c in zip(u_row, f.coeffs))
            if u_val != 0:
                got = classify_curve(fib, f)
                assert fat_id not in got
                assert got == oracle_classify(cfg, f)
                found = True
                break
        assert found


class TestImpose:
    def test_deterministic(self):
        fib = fibre(ref_config())
        a = impose_singularities(fib, [3, 6], SplitMix64(9))
        b = impose_singularities(fib, [3, 6], SplitMix64(9))
        assert a == b

    @pytest.mark.parametrize(
        "degree,seed,mults", [(5, 11, (2,)), (6, 3, (3,))], ids=["double", "triple"]
    )
    def test_imposes_at_fat_points(self, degree, seed, mults):
        cfg = _draw_config(degree, seed, mults)
        fib = fibre(cfg)
        fat_id = cfg.npoints
        for ids in ([fat_id], [1, fat_id]):
            f = impose_singularities(fib, ids, SplitMix64(fat_id))
            got = classify_curve(fib, f)
            assert got == set(ids)
            assert got == oracle_classify(cfg, f)

    def test_rejects_empty(self):
        fib = fibre(ref_config())
        with pytest.raises(ConfigError):
            impose_singularities(fib, [], SplitMix64(1))

    def test_rejects_a_short_normal_space(self, monkeypatch):
        import sheafloci.singloci as singloci

        fib = fibre(ref_config())
        monkeypatch.setattr(singloci, "_locus_codim", lambda fib, rows, *certificate: 1)
        with pytest.raises(DegenerateError) as err:
            impose_singularities(fib, [3, 6], SplitMix64(1))
        assert (err.value.expected, err.value.actual) == (2, 1)

    def test_d4_and_d5(self):
        for d, seed in ((4, 3), (5, 6)):
            cfg = random_config(d, seed)
            fib = fibre(cfg)
            f = impose_singularities(fib, [1, 2], SplitMix64(seed))
            assert classify_curve(fib, f) == {1, 2}


class TestImposeKernel:
    @pytest.mark.parametrize("d", [4, 5, 6, 7])
    def test_singular_exactly_at_requested_points(self, d):
        cfg = random_config(d, 40 + d)
        fib = fibre(cfg)
        n = cfg.npoints
        triple = next(
            s
            for s in combinations(range(1, n + 1), 3)
            if support_det(cfg, s) != 0
        )
        requests = [[1], [n], [1, n], [2, 3], list(triple)]
        for k, ids in enumerate(requests):
            f = impose_singularities(fib, ids, SplitMix64(1000 * d + k))
            assert fib.contains(f)
            for pid in ids:
                for row in singular_conditions(cfg, pid):
                    assert sum(r * c for r, c in zip(row, f.coeffs)) == 0
            assert classify_curve(fib, f) == set(ids)

    # sha256 prefixes of the nine curves imposed on random_config(d, 1)
    # in each stratum, one str per line, keyed by (stratum, d)
    CURVE_DIGESTS = {
        ("generic", 5): "a9bca7bd422fe4d3",
        ("generic", 6): "675708da54e7fdef",
        ("generic", 7): "cc8328324c856bb2",
        ("double", 5): "41c7e1b77332c3aa",
        ("double", 6): "999763e9c9b63ab4",
        ("double", 7): "e563715db4e634ec",
    }

    @pytest.mark.parametrize("stratum,d", sorted(CURVE_DIGESTS))
    def test_curves_are_pinned(self, stratum, d):
        cfg = random_config(d, 1, stratum=stratum)
        fib = fibre(cfg)
        n = cfg.npoints
        requests = [[1], [2], [n], [1, 2], [1, n], [2, 3], [1, 2, 3], [1, 2, n], [2, 3, n]]
        text = "\n".join(
            str(impose_singularities(fib, ids, SplitMix64(100 * d + k)))
            for k, ids in enumerate(requests)
        )
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        assert digest == self.CURVE_DIGESTS[stratum, d]

    def test_all_random_points_leave_no_curve(self):
        fib = fibre(random_config(6, 1))
        with pytest.raises(DegenerateError, match="no curve in the fibre is singular"):
            impose_singularities(fib, range(1, 11), SplitMix64(1))

    def test_all_reference_points_leave_no_curve(self):
        # The ten blocks have rank 18, every free coordinate of the fibre.
        fib = fibre(ref_config())
        ids = range(1, 11)
        exact = ExactFibre(fib)
        rows = [row for pid in ids for row in exact.block(pid)]
        assert rank_of_rows(rows) == len(exact.space.free_columns) == 18
        with pytest.raises(DegenerateError, match="no curve"):
            impose_singularities(fib, ids, SplitMix64(1))


class TestNoExactFibre:
    """No library path builds the exact fibre: ProjSubspace.cut_by raises."""

    @pytest.fixture(autouse=True)
    def refuse_subspaces(self, monkeypatch):
        import sheafloci.linsys as linsys

        def refuse(*args):
            raise AssertionError("exact fibre built")

        monkeypatch.setattr(linsys.ProjSubspace, "cut_by", refuse)

    def check(self, cfg, extra=()):
        fib = fibre(cfg)
        rep = locus_report(fib, triples=True, extra_subsets=extra)
        assert asserted_violations(rep) == []
        ids = [1, cfg.npoints]
        f = impose_singularities(fib, ids, SplitMix64(cfg.npoints))
        assert classify_curve(fib, f) == set(ids)
        return rep

    @pytest.mark.parametrize("d,stratum,mults", SEEDED_STRATA)
    def test_seeded_strata(self, d, stratum, mults):
        self.check(seeded_stratum_config(d, stratum, mults))

    def test_remark6_reference(self):
        rep = self.check(ref_config(), extra=[(1, 2, 3, 4), (1, 2, 3, 4, 5)])
        assert dict(rep.subset_codims) == {(1, 2, 3, 4): 8, (1, 2, 3, 4, 5): 9}

    def test_short_membership_echelon(self, monkeypatch):
        import sheafloci.linsys as linsys

        monkeypatch.setattr(linsys, "echelon_mod_p", lambda rows: None)
        self.check(random_config(6, 4, stratum="double"))


class TestReport:
    def test_reference_report(self):
        fib = fibre(ref_config())
        rep = locus_report(
            fib,
            pairs=True,
            triples=True,
            extra_subsets=[(1, 2, 3, 4), (1, 2, 3, 4, 5), (4, 3, 2, 1), (5, 1, 4, 2, 3)],
        )
        assert rep.degree == 6
        assert rep.stratum == "generic"
        assert rep.fibre_dim == 17
        assert all(c == 2 for _, _, c in rep.point_codims)
        assert all(c == 4 for _, _, c in rep.pair_codims)
        assert len(rep.pair_codims) == 45
        collinear_flagged = {
            (i, j, k) for i, j, k, _, flag in rep.triple_codims if flag
        }
        assert (2, 3, 4) in collinear_flagged
        assert (1, 2, 6) in collinear_flagged
        assert (1, 2, 3) not in collinear_flagged
        subsets = dict(rep.subset_codims)
        assert subsets[(1, 2, 3, 4)] == subsets[(4, 3, 2, 1)] == 8
        assert subsets[(1, 2, 3, 4, 5)] == subsets[(5, 1, 4, 2, 3)] == 9
        assert asserted_violations(rep) == []

    def test_violations_detected(self):
        rep = SingularLocusReport(
            degree=5,
            stratum="generic",
            fibre_dim=14,
            point_codims=((1, "simple", 2), (2, "simple", 1)),
            pair_codims=((1, 2, 3),),
            triple_codims=((1, 2, 3, 5, False), (1, 2, 4, 5, True)),
            subset_codims=(),
        )
        v = asserted_violations(rep)
        assert len(v) == 3
        assert any("point 2" in s for s in v)
        assert any("pair (1,2)" in s for s in v)
        assert any("triple (1,2,3)" in s for s in v)

    def test_double_stratum_report(self):
        cfg = random_config(6, 40, stratum="double")
        fib = fibre(cfg)
        rep = locus_report(fib, pairs=False)
        assert rep.stratum == "double"
        kinds = {kind for _, kind, _ in rep.point_codims}
        assert kinds == {"simple", "fat"}
        assert all(c == 2 for _, _, c in rep.point_codims)


class TestCollinearFlag:
    """A triple's collinear flag is the vanishing of its support determinant."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("stratum", ["generic", "double"])
    @pytest.mark.parametrize("degree", [5, 6, 7, 8])
    def test_flag_is_a_zero_support_determinant(self, degree, stratum, seed):
        cfg = random_config(degree, seed, stratum=stratum)
        rep = locus_report(fibre(cfg), pairs=False, triples=True)
        assert len(rep.triple_codims) == len(list(combinations(range(cfg.npoints), 3)))
        for i, j, k, _codim, flag in rep.triple_codims:
            assert flag == (support_det(cfg, (i, j, k)) == 0)

    def test_reference_examples(self):
        # points 2..5 lie on x0 = 0; (1:0:0), (0:1:0) and (1:-2:0) on x2 = 0
        cfg = ref_config()
        rep = locus_report(fibre(cfg), pairs=False, triples=True)
        flags = {(i, j, k): flag for i, j, k, _codim, flag in rep.triple_codims}
        assert flags == {s: support_det(cfg, s) == 0 for s in flags}
        assert flags[(2, 3, 4)] and flags[(2, 4, 5)] and flags[(1, 2, 6)]
        assert not flags[(1, 2, 3)]


class TestExtraSubsets:
    """An extra subset's codim does not depend on how it is ranked."""

    @pytest.mark.parametrize(
        "cfg",
        [ref_config(), random_config(5, 1), random_config(5, 1, stratum="double")],
        ids=["remark6", "generic-5", "double-5"],
    )
    def test_small_subsets_in_any_order_match_the_report(self, cfg):
        n = cfg.npoints
        extra = [s for size in (1, 2, 3) for s in permutations(range(1, n + 1), size)]
        rep = locus_report(fibre(cfg), pairs=True, triples=True, extra_subsets=extra)
        own = {(pid,): codim for pid, _kind, codim in rep.point_codims}
        own.update({(i, j): codim for i, j, codim in rep.pair_codims})
        own.update({(i, j, k): codim for i, j, k, codim, _ in rep.triple_codims})
        assert len(rep.subset_codims) == len(extra)
        for ids, codim in rep.subset_codims:
            assert codim == own[tuple(sorted(ids))]


def count_rank_calls(monkeypatch):
    """Record (rows, columns, rank, read) of every singloci.rank_of_rows call.

    read tells whether rank_of_rows iterated the stacked rows, which it
    does only when the sketch certificate it was given falls short.
    """
    import sheafloci.singloci as singloci

    original = singloci.rank_of_rows
    calls = []

    def counting(rows, *certificate):
        rows = ReadRows(rows)
        r = original(rows, *certificate)
        calls.append((len(rows), len(rows[0]) if rows else 0, r, rows.read))
        return r

    monkeypatch.setattr(singloci, "rank_of_rows", counting)
    return calls


def sketch_times_p(monkeypatch):
    """Scale every sketch entry by P, so every fibre member mod P is 0."""
    import sheafloci.linsys as linsys

    original = linsys._sketch_matrix
    monkeypatch.setattr(
        linsys,
        "_sketch_matrix",
        lambda n: tuple(tuple(P * a for a in col) for col in original(n)),
    )


def compressed_conditions(fib):
    """Each point's condition rows, compressed to the exact fibre."""
    import sheafloci.singloci as singloci

    space = ExactFibre(fib).space
    return {
        pid: [
            space.compress_numerators(r)[0]
            for r in singloci.condition_rows(fib.config, pid)
        ]
        for pid in range(1, fib.config.npoints + 1)
    }


def stacked_rank(compressed, ids):
    """rank_of_rows on the stacked compressed condition rows of the points in ids."""
    return rank_of_rows([row for pid in ids for row in compressed[pid]])


class TestSketch:
    """Every locus is first ranked on its images mod P.

    Each point, pair, triple and extra subset S makes one rank_of_rows
    call on the l membership rows stacked with its condition rows, of
    monomial_count(d) columns.  A point, pair or triple passes a maximal
    minor mod P of S's residue block: a point its block's minor, a pair
    (i, j) a minor of j's block reduced by i's RREF, a triple the
    determinant of the two later points' reduced blocks.  Only a minor of
    0 makes rank_of_rows read the rows.  An extra subset passes none, so
    rank_of_rows reads its rows and takes its own certificate from them.
    """

    @pytest.mark.parametrize("stratum", ["generic", "double"])
    def test_short_sketches_fall_back_to_the_blocks(self, monkeypatch, stratum):
        import sheafloci.linsys as linsys

        cfg = random_config(5, 1, stratum=stratum)
        extra = [(1, 2, 3), (1, 2, 3, 4)]
        expected = locus_report(fibre(cfg), pairs=True, triples=True, extra_subsets=extra)
        # one nonzero column: the residues of two or more rows have rank 1
        monkeypatch.setattr(
            linsys, "_sketch_matrix", lambda n: ((1,) * n,) + ((0,) * n,) * 5
        )
        fib = fibre(cfg)
        calls = count_rank_calls(monkeypatch)
        rep = locus_report(fib, pairs=True, triples=True, extra_subsets=extra)
        assert rep == expected
        # no locus is certified, so each one reads its stacked rows once
        l = len(fib.membership)
        stacked = (
            [l + 2] * len(rep.point_codims)
            + [l + 4] * len(rep.pair_codims)
            + [l + 6] * len(rep.triple_codims)
            + [l + 6, l + 8]
        )
        assert sorted(rows for rows, _cols, _r, _read in calls) == sorted(stacked)
        assert all(read for _rows, _cols, _r, read in calls)
        assert {cols for _rows, cols, _r, _read in calls} == {monomial_count(5)}
        for i, j, codim in rep.pair_codims:
            assert codim == ambient_codim(fib, [i, j])
        for i, j, k, codim, _collinear in rep.triple_codims:
            assert codim == ambient_codim(fib, [i, j, k])

    def test_one_rank_call_per_subset_when_sketches_certify(self, monkeypatch):
        fib = fibre(ref_config())
        calls = count_rank_calls(monkeypatch)
        extra = [(1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4, 5)]
        rep = locus_report(fib, pairs=True, triples=True, extra_subsets=extra)
        subsets = len(rep.pair_codims) + len(rep.triple_codims) + len(extra)
        assert subsets == 45 + 120 + 3
        assert len(calls) == len(rep.point_codims) + subsets
        # the residues certify every point, pair and triple; the extra
        # subsets of 3, 4 and 5 points stack 6, 8 and 10 condition rows
        # under the 10 membership rows, of 28 columns
        assert all(r == rows for rows, _cols, r, read in calls if not read)
        read = [(rows, cols, r) for rows, cols, r, read in calls if read]
        assert read == [(16, 28, 16), (18, 28, 18), (20, 28, 19)]
        assert all(codim == 4 for _i, _j, codim in rep.pair_codims)
        assert dict(rep.subset_codims)[(1, 2, 3, 4, 5)] == 9

    def test_extra_subsets_of_more_than_six_rows_pass_no_certificate(
        self, monkeypatch
    ):
        import sheafloci.singloci as singloci

        # an extra subset passes no certificate, whatever its size; six
        # residue columns have no nonzero minor on more than six condition
        # rows anyway
        original = singloci.rank_of_rows
        seen = []

        def spy(rows, minor=0):
            seen.append((len(rows), minor != 0))
            return original(rows, minor)

        monkeypatch.setattr(singloci, "rank_of_rows", spy)
        extra = [(1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4, 5)]
        locus_report(fibre(ref_config()), pairs=False, extra_subsets=extra)
        # ten points, then the subsets, under the 10 membership rows
        assert seen == [(12, True)] * 10 + [(16, False), (18, False), (20, False)]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_generic_d8_triples_make_no_exact_rank_call(self, monkeypatch, seed):
        import sheafloci.exactalg as exactalg
        import sheafloci.linsys as linsys

        # neither the fibre nor the report inserts an integer row, and
        # the report never builds the exact fibre
        def no_insert(pivots, row):
            raise AssertionError("insert_row called")

        def no_subspace(*args):
            raise AssertionError("exact fibre built")

        monkeypatch.setattr(exactalg, "insert_row", no_insert)
        monkeypatch.setattr(linsys.ProjSubspace, "cut_by", no_subspace)
        fib = fibre(random_config(8, seed))
        calls = count_rank_calls(monkeypatch)
        rep = locus_report(fib, triples=True)
        assert len(rep.triple_codims) > 1000
        assert len(calls) == (
            len(rep.point_codims) + len(rep.pair_codims) + len(rep.triple_codims)
        )
        assert not any(read for _rows, _cols, _r, read in calls)


class TestSketchDifferential:
    """Every pair and triple codim against rank_of_rows on the compressed rows."""

    def check(self, fib):
        rep = locus_report(fib, pairs=True, triples=True)
        compressed = compressed_conditions(fib)
        for i, j, codim in rep.pair_codims:
            assert codim == stacked_rank(compressed, (i, j))
        for i, j, k, codim, _collinear in rep.triple_codims:
            assert codim == stacked_rank(compressed, (i, j, k))
        return rep

    @pytest.mark.parametrize("stratum", ["generic", "double"])
    @pytest.mark.parametrize("degree", [5, 6, 7, 8])
    def test_seeded_fibres(self, degree, stratum):
        self.check(fibre(random_config(degree, 100 + degree, stratum=stratum)))

    @pytest.mark.parametrize(
        "degree,mults", [(5, (3,)), (6, (2, 2))], ids=["5-fat3", "6-fat2+2"]
    )
    def test_curvilinear_strata(self, degree, mults):
        self.check(fibre(_draw_config(degree, 2 * degree, mults)))

    def test_dependent_blocks_are_not_certified(self, monkeypatch):
        import sheafloci.singloci as singloci

        # point 3's rows lie in the span of points 1 and 2, and point 4
        # shares a row with point 1 and one with the span of points 1 and 5
        fib = fibre(ref_config())
        original = singloci.condition_rows
        g1, g2, g5 = (original(fib.config, pid) for pid in (1, 2, 5))
        made = {
            3: [
                [a + b for a, b in zip(g1[0], g2[1])],
                [2 * a - b for a, b in zip(g1[1], g2[0])],
            ],
            4: [g1[1], [a - 3 * b for a, b in zip(g1[0], g5[0])]],
        }
        monkeypatch.setattr(
            singloci,
            "condition_rows",
            lambda cfg, pid: made[pid] if pid in made else original(cfg, pid),
        )
        rep = self.check(fib)
        triples = {(i, j, k): codim for i, j, k, codim, _ in rep.triple_codims}
        pairs = {(i, j): codim for i, j, codim in rep.pair_codims}
        assert triples[(1, 2, 3)] == 4
        assert pairs[(1, 4)] == 3 and triples[(1, 4, 5)] == 4
        assert triples[(1, 4, 6)] == 5

    @pytest.mark.parametrize("stratum", ["generic", "double"])
    def test_zero_residues_take_the_exact_path(self, monkeypatch, stratum):
        cfg = random_config(6, 3, stratum=stratum)
        extra = [(1, 2, 3, 4), (1, 2, 3, 4, 5)]
        expected = locus_report(fibre(cfg), pairs=True, triples=True, extra_subsets=extra)
        sketch_times_p(monkeypatch)
        fib = fibre(cfg)
        assert fib.members and not any(any(q) for q in fib.members)
        calls = count_rank_calls(monkeypatch)
        rep = locus_report(fib, pairs=True, triples=True, extra_subsets=extra)
        assert rep == expected
        subsets = len(rep.pair_codims) + len(rep.triple_codims) + len(extra)
        assert len(calls) == len(rep.point_codims) + subsets
        assert all(read for _rows, _cols, _r, read in calls)

    @pytest.mark.parametrize("stratum", ["generic", "double"])
    def test_short_membership_echelon_takes_the_exact_path(self, monkeypatch, stratum):
        import sheafloci.linsys as linsys

        # as if P divided a membership minor: the fibre keeps no members
        # mod P, ranks M exactly, and every locus is ranked on its
        # integer rows
        cfg = random_config(6, 4, stratum=stratum)
        fast = fibre(cfg)
        expected = locus_report(fast, pairs=True, triples=True, extra_subsets=[(1, 2, 3)])
        monkeypatch.setattr(linsys, "echelon_mod_p", lambda rows: None)
        fib = fibre(cfg)
        assert fib.members == () and fib.membership == fast.membership
        assert fib.proj_dim == fast.proj_dim == 17
        calls = count_rank_calls(monkeypatch)
        rep = locus_report(fib, pairs=True, triples=True, extra_subsets=[(1, 2, 3)])
        assert rep == expected
        assert all(read for _rows, _cols, _r, read in calls)
        assert [normal_space_dim(fib, pid) for pid in range(1, cfg.npoints + 1)] == [2] * cfg.npoints


_RESIDUE = st.one_of(st.sampled_from([0, 0, 0, 1, P - 1]), st.integers(0, P - 1))


@st.composite
def residue_blocks(draw):
    """Three 2 x 6 residue blocks; zero, repeated and dependent rows are common."""
    rows = []
    for _ in range(6):
        kind = draw(st.sampled_from(["free", "free", "zero", "repeat", "span"]))
        if kind == "free":
            row = draw(st.lists(_RESIDUE, min_size=6, max_size=6))
        elif kind == "repeat" and rows:
            row = list(draw(st.sampled_from(rows)))
        elif kind == "span" and rows:
            weights = draw(st.lists(_RESIDUE, min_size=len(rows), max_size=len(rows)))
            row = [sum(map(mul, weights, col)) % P for col in zip(*rows)]
        else:
            row = [0] * 6
        rows.append(row)
    return [rows[0:2], rows[2:4], rows[4:6]]


_E = [[int(i == j) for j in range(6)] for i in range(6)]


@settings(max_examples=500, deadline=None)
@given(residue_blocks())
# a zero first row; a first row zero at the second row's pivot
@example([[[0] * 6, _E[3]], [_E[0], _E[1]], [_E[2], _E[4]]])
@example([[_E[2], [5, 0, 7, 0, 0, 0]], [_E[1], _E[3]], [_E[4], _E[5]]])
# a repeated row; a row in the span of the others
@example([[_E[0], _E[1]], [_E[2], _E[0]], [_E[4], _E[5]]])
@example([[_E[0], _E[1]], [_E[2], _E[3]], [_E[4], [1, 2, 3, 4, 0, 0]]])
# a first block whose RREF rows are nonzero off its pivot columns, and a
# second block whose second row is twice the first block's first row
# plus its second: a wrong or partly applied RREF leaves that row's
# reduction nonzero
@example(
    [
        [[2, 1, 3, 0, 0, 0], [2, 0, 1, 0, 0, 3]],
        [[3, 0, 1, 0, 3, 0], [6, 2, 7, 0, 0, 3]],
        [[0, 1, 0, 3, 0, 1], [0, 1, 2, 3, 1, 0]],
    ]
)
# a triple of rank 5 whose six cofactor products are all nonzero, so a
# flipped cofactor sign makes its value nonzero
@example(
    [
        [_E[0], _E[1]],
        [[0, 0, 1, 2, 3, 5], [0, 0, 7, 11, 13, 17]],
        [[0, 0, 8, 13, 16, 22], [0, 0, 1, 4, 9, 16]],
    ]
)
def test_subset_minors_are_nonzero_iff_full_row_rank_mod_p(blocks):
    # the point, pair and triple minors of locus_report's certificates,
    # composed as its loop composes them
    minor, rref = _point_echelon(blocks[0])
    m1, m2 = (_reduced_minors(rref, b) for b in blocks[1:])
    values = [minor, next(filter(None, m1), 0), sum(map(mul, _cofactors(m1), m2)) % P]
    for n, value in zip((1, 2, 3), values):
        stacked = [r for b in blocks[:n] for r in b]
        assert (value != 0) == (rank_mod_p(stacked) == 2 * n)


@settings(max_examples=300, deadline=None)
@given(residue_blocks())
def test_point_echelon_is_the_block_rref(blocks):
    # the identity at the pivots, zeros before each, the block's span,
    # and the first pivot pair in the order the certificates rely on
    for block in blocks:
        minor, rref = _point_echelon(block)
        a, b = block
        pairs = [
            (c1, c2)
            for c1, c2 in combinations(range(6), 2)
            if (a[c1] * b[c2] - a[c2] * b[c1]) % P
        ]
        assert (minor != 0) == (rref is not None) == bool(pairs)
        if rref is None:
            continue
        c1, c2, e1, e2 = rref
        assert (c1, c2) == pairs[0]
        assert [e1[c1], e1[c2], e2[c1], e2[c2]] == [1, 0, 0, 1]
        assert not any(e1[:c1]) and not any(e2[:c2])
        assert all(0 <= x < P for x in e1 + e2)
        assert rank_mod_p([e1, e2]) == rank_mod_p([e1, e2, *block]) == 2


class TestAmbientOracle:
    """Every locus_report codimension against ambient_codim.

    The report ranks integer blocks compressed to the fibre; the oracle
    ranks the membership rows stacked with the ambient condition rows by
    first-nonzero Fraction elimination.
    """

    @pytest.mark.parametrize(
        "degree,stratum,seed",
        [
            (4, "generic", 1),
            (4, "generic", 2),
            (4, "generic", 3),
            (5, "generic", 1),
            (5, "generic", 2),
            (6, "generic", 1),
            (4, "double", 1),
            (4, "double", 2),
            (4, "double", 3),
            (5, "double", 1),
            (5, "double", 2),
        ],
    )
    def test_report_matches_ambient_codims(self, degree, stratum, seed):
        fib = fibre(random_config(degree, seed, stratum=stratum))
        rep = locus_report(fib, pairs=True, triples=True)
        for pid, _kind, codim in rep.point_codims:
            assert codim == ambient_codim(fib, [pid])
        for i, j, codim in rep.pair_codims:
            assert codim == ambient_codim(fib, [i, j])
        for i, j, k, codim, _collinear in rep.triple_codims:
            assert codim == ambient_codim(fib, [i, j, k])

    def test_reference_subsets_match_ambient_codims(self):
        fib = fibre(ref_config())
        subsets = [(1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4, 5), (2, 3, 4), (6, 7, 8, 9, 10)]
        rep = locus_report(fib, pairs=False, extra_subsets=subsets)
        got = dict(rep.subset_codims)
        assert got[(1, 2, 3, 4)] == 8 and got[(1, 2, 3, 4, 5)] == 9
        for ids in subsets:
            assert got[ids] == ambient_codim(fib, ids)


# one fat point of multiplicity 3 to 6, two or three double points, or a
# triple point and a double point
CURVILINEAR_STRATA = [
    (5, (3,)),
    (5, (4,)),
    (5, (5,)),
    (5, (6,)),
    (5, (2, 2)),
    (5, (2, 2, 2)),
    (5, (3, 2)),
    (6, (3,)),
    (6, (2, 2)),
    (6, (3, 2)),
    (7, (3,)),
]


class TestCurvilinearStrata:
    """Configurations past one double point meet the same expectations.

    Every locus_report codimension matches ambient_codim: 2 per point, 4
    per pair and 6 per non-collinear triple; normal_space_dim accepts
    every point.
    """

    @pytest.mark.parametrize(
        "degree,mults",
        CURVILINEAR_STRATA,
        ids=[f"{d}-fat{'+'.join(map(str, m))}" for d, m in CURVILINEAR_STRATA],
    )
    def test_report_matches_ambient_codims(self, degree, mults):
        cfg = _draw_config(degree, degree, mults)
        assert cfg.stratum() == "deep"
        fib = fibre(cfg)
        rep = locus_report(fib, pairs=True, triples=True)
        assert asserted_violations(rep) == []
        for pid, _kind, codim in rep.point_codims:
            assert codim == ambient_codim(fib, [pid]) == normal_space_dim(fib, pid) == 2
        for i, j, codim in rep.pair_codims:
            assert codim == ambient_codim(fib, [i, j]) == 4
        for i, j, k, codim, is_collinear in rep.triple_codims:
            if not is_collinear:
                assert codim == ambient_codim(fib, [i, j, k]) == 6


SEEDED_D5_TO_D7 = [
    (degree, stratum, seed)
    for degree, seed in ((5, 1), (6, 2), (7, 3))
    for stratum in ("generic", "double")
]


class TestIntegerRows:
    """Condition rows are born as integers, and a point counts only up to scale."""

    @pytest.mark.parametrize("degree,stratum,seed", SEEDED_D5_TO_D7)
    def test_integral_inputs_give_int_rows(self, degree, stratum, seed):
        cfg = random_config(degree, seed, stratum=stratum)
        rows = []
        for p in cfg.simple:
            rows.append(branch_rows(p, degree, [0])[0])
            rows.extend(gradient_rows(p, degree))
        for fp in cfg.fat:
            rows.extend(branch_rows(fp, degree, range(fp.mult)))
            rows.extend(branch_rows(fp, degree, [fp.mult]))
        for pid in range(1, cfg.npoints + 1):
            rows.extend(singular_conditions(cfg, pid))
        rows.extend(membership_conditions(cfg, degree))
        space = ExactFibre(fibre(cfg)).space
        rows.extend(space.block)
        assert {type(a) for row in rows for a in row} == {int}
        assert type(space.den) is int and space.den > 0

    @pytest.mark.parametrize("degree,stratum,seed", SEEDED_D5_TO_D7)
    def test_rational_coordinates_give_the_same_blocks_and_report(
        self, degree, stratum, seed
    ):
        cfg = random_config(degree, seed, stratum=stratum)
        rng = SplitMix64(seed)
        # the same points and the same fat point, written with denominators
        simple = []
        for p in cfg.simple:
            s = rng.randint(2, 9)
            simple.append(SimplePoint(tuple(c / s for c in p.coords)))
        fat = []
        for fp in cfg.fat:
            # q shares a factor with the support's leading coordinate, so the
            # three branch polynomials get different denominators
            lead = next(c for c in fp.support.primitive if c)
            q = rng.randint(2, 9) * abs(int(lead))
            frame = QMatrix.from_rows([[a / q for a in fp.frame.row(i)] for i in range(3)])
            fat.append(FatPoint.of(fp.support, frame, fp.h, fp.mult))
        scaled = PointConfig.of(degree, simple, fat)
        assert any(c.denominator > 1 for p in simple for c in p.coords)
        for fp in fat:
            # the frame the branch is read from is rational
            assert any(c.denominator > 1 for c in fp.frame.entries)

        fib, fib_scaled = fibre(cfg), fibre(scaled)
        exact, exact_scaled = ExactFibre(fib), ExactFibre(fib_scaled)
        assert exact_scaled.space == exact.space
        for pid in range(1, cfg.npoints + 1):
            assert exact_scaled.block(pid) == exact.block(pid)
        reports = [locus_report(f, pairs=True, triples=True) for f in (fib, fib_scaled)]
        assert report_to_dict(reports[1]) == report_to_dict(reports[0])


# seeded generic and double configurations at degrees 5-7, and fat points
# of multiplicity 3, 2+2, 3+2 and 2+2+2
EULER_STRATA = [(d, stratum, seed, ()) for d, stratum, seed in SEEDED_D5_TO_D7] + [
    (5, "deep", 5, (3,)),
    (5, "deep", 5, (2, 2, 2)),
    (6, "deep", 6, (2, 2)),
    (6, "deep", 6, (3, 2)),
]


EULER_IDS = [
    f"{d}-{stratum}-{seed}" if not mults else f"{d}-fat{'+'.join(map(str, mults))}"
    for d, stratum, seed, mults in EULER_STRATA
]


def euler_config(degree, stratum, seed, mults):
    if mults:
        return _draw_config(degree, seed, mults)
    return random_config(degree, seed, stratum=stratum)


def full_echelon(exact, pid):
    """The echelon of every compressed singular row of the point, in order."""
    echelon = {}
    for row in singular_conditions(exact.fibre.config, pid):
        insert_row(echelon, exact.space.compress_numerators(row)[0])
    return list(echelon.values())


class TestClosedForms:
    """branch_rows' order-0 and order-1 rows equal the series rows.

    branch_rows reads the order-0 row as evaluation at s = w(0) and the
    order-1 row as t . grad F(s), t = w'(0), and expands F(w(y)) only
    from order 2 on; the series gives every order.  Checked at every
    point, simple or fat, in the degrees of the fibre, the Kronecker
    resolution and the admissibility test.
    """

    @pytest.mark.parametrize("degree,stratum,seed,mults", EULER_STRATA, ids=EULER_IDS)
    def test_orders_0_and_1_equal_the_series(self, degree, stratum, seed, mults):
        cfg = euler_config(degree, stratum, seed, mults)
        for pt in cfg.points:
            for k in (degree, degree - 2, degree - 3):
                series = _series_rows(pt.branch, k, [0, 1])
                assert branch_rows(pt, k, [0, 1]) == [series[0], series[1]]


class TestEulerRow:
    """The s-row of the gradient is d times the order-0 row, a row of M.

    With s = w(0) a point's branch point, Euler's relation makes
    sum_k s_k (gradient row k) d times the evaluation at s, the order-0
    branch row, at every point.
    """

    @pytest.mark.parametrize("degree,stratum,seed,mults", EULER_STRATA, ids=EULER_IDS)
    def test_weighted_gradient_rows_are_d_times_the_membership_row(
        self, degree, stratum, seed, mults
    ):
        cfg = euler_config(degree, stratum, seed, mults)
        membership = membership_conditions(cfg, degree)
        for pt in cfg.points:
            _n, s, _t = pt.axes
            weighted = [sum(map(mul, s, col)) for col in zip(*gradient_rows(pt, degree))]
            (order0,) = branch_rows(pt, degree, [0])
            assert weighted == [degree * a for a in order0]
            assert order0 in membership

    @pytest.mark.parametrize("degree,stratum,seed,mults", EULER_STRATA, ids=EULER_IDS)
    def test_block_is_the_echelon_of_every_singular_row(self, degree, stratum, seed, mults):
        exact = ExactFibre(fibre(euler_config(degree, stratum, seed, mults)))
        for pid in range(1, exact.fibre.config.npoints + 1):
            assert exact.block(pid) == full_echelon(exact, pid)


FAT_STRATA = [x for x in EULER_STRATA if x[1] != "generic"]


class TestChainRule:
    """The t-row of the gradient is the order-1 row, by the chain rule.

    With t = w'(0) the branch's tangent, t . grad F(s) is the y^1
    coefficient of F(w(y)).  At a fat point it is a row of M; at a
    simple point it is the order-m row that condition_rows keeps.  So
    the n-row and the order-m row span every singular row modulo M.
    """

    @pytest.mark.parametrize(
        "degree,stratum,seed,mults",
        FAT_STRATA,
        ids=[i for i, x in zip(EULER_IDS, EULER_STRATA) if x in FAT_STRATA],
    )
    def test_tangent_gradient_row_is_a_multiple_of_the_order_1_row(
        self, degree, stratum, seed, mults
    ):
        cfg = euler_config(degree, stratum, seed, mults)
        assert cfg.fat
        fib = fibre(cfg)
        membership = membership_conditions(cfg, degree)
        for pid, pt in enumerate(cfg.points, 1):
            n, _s, t = pt.axes
            grad = gradient_rows(pt, degree)
            weighted = [sum(map(mul, t, col)) for col in zip(*grad)]
            (order1,) = branch_rows(pt, degree, [1])
            assert weighted == order1 == _series_rows(pt.branch, degree, [1])[1]
            assert (order1 in membership) == (pt.mult > 1)
            # the two rows kept span all four modulo the membership rows
            rows = singular_conditions(cfg, pid)
            kept = condition_rows(cfg, pid)
            assert kept[0] == [sum(map(mul, n, col)) for col in zip(*grad)]
            assert kept[1] == list(rows[3]) and tuple(kept[0]) in rows[:3]
            assert normal_space_dim(fib, pid) == ambient_codim(fib, [pid]) == 2

    def test_standard_double_point_keeps_the_normal_gradient_row(self):
        # the double point (x1^2, x2) at (1:0:0): its frame is the identity,
        # so n = e2, and only the x2-derivative is a condition modulo M
        fp = FatPoint.of(SimplePoint.of(1, 0, 0), identity_matrix(3), (), 2)
        cfg = PointConfig.of(4, [SimplePoint.of(0, 0, 1)], [fp])
        fib = fibre(cfg)
        assert condition_rows(cfg, 2)[0] == gradient_rows(fp, 4)[2]
        rep = locus_report(fib)
        assert rep.point_codims == ((1, "simple", 2), (2, "fat", 2))
        assert [codim for _i, _j, codim in rep.pair_codims] == [4]
        assert normal_space_dim(fib, 2) == ambient_codim(fib, [2]) == 2


# generic, double and fat-3 configurations at degrees 5-7
INVARIANCE_STRATA = [
    pytest.param(d, stratum, mults, id=f"{d}-{stratum if not mults else 'fat3'}")
    for d in (5, 6, 7)
    for stratum, mults in (("generic", ()), ("double", ()), ("deep", (3,)))
]


def moved_config(cfg, g, order):
    """cfg moved by g, with its simple points taken in the given order.

    A simple point p goes to g p; a fat point to support g p and frame
    g frame, with the same h and multiplicity, so its ideal moves by g.
    """
    simple = [SimplePoint(tuple(matrix_vector(g, cfg.simple[i].coords))) for i in order]
    fat = [
        FatPoint(
            SimplePoint(tuple(matrix_vector(g, fp.support.coords))),
            QMatrix.from_rows(matrix_product(g.row_lists(), fp.frame.row_lists())),
            fp.h,
            fp.mult,
        )
        for fp in cfg.fat
    ]
    return PointConfig.of(cfg.degree, simple, fat)


def keyed_report(rep, ids):
    """A report's numbers keyed by point ids mapped through ids."""
    return (
        rep.fibre_dim,
        {ids[pid]: (kind, codim) for pid, kind, codim in rep.point_codims},
        {tuple(sorted((ids[i], ids[j]))): codim for i, j, codim in rep.pair_codims},
        {
            tuple(sorted((ids[i], ids[j], ids[k]))): (codim, flag)
            for i, j, k, codim, flag in rep.triple_codims
        },
    )


@cache
def invariance_reference(d, stratum, mults):
    """The configuration, its report, and a curve imposed at its first and last points."""
    cfg = seeded_stratum_config(d, stratum, mults)
    fib = fibre(cfg)
    curve = impose_singularities(fib, [1, cfg.npoints], SplitMix64(d))
    return cfg, locus_report(fib, triples=True), curve, classify_curve(fib, curve)


class TestProjectiveInvariance:
    """Reports, classifications and freeness are invariant under PGL(3).

    The construction commutes with moving the plane by an invertible g
    and with relabelling the points, so the report's codims, collinear
    flags and fibre_dim must too, and so must the singular points of a
    curve f moved to f(g^-1 x) and its freeness at a fat point.  A simple
    point's frame is its own completion, not g times the old one, so a
    slip in a frame convention, such as the choice of the transverse
    axis n, would show here.
    """

    @pytest.mark.parametrize("d,stratum,mults", INVARIANCE_STRATA)
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_report_classification_and_freeness_are_invariant(self, d, stratum, mults, data):
        cfg, rep, curve, singular = invariance_reference(d, stratum, mults)
        g = data.draw(
            st.lists(st.integers(-3, 3), min_size=9, max_size=9)
            .map(lambda e: QMatrix.from_rows([e[:3], e[3:6], e[6:]]))
            .filter(lambda m: qdet(m) != 0),
            label="g",
        )
        order = data.draw(st.permutations(range(len(cfg.simple))), label="order")
        moved = moved_config(cfg, g, order)
        # old simple id order[j] + 1 is new id j + 1; fat ids stay
        ids = {old + 1: new for new, old in enumerate(order, 1)}
        ids.update({pid: pid for pid in range(len(cfg.simple) + 1, cfg.npoints + 1)})
        same = {pid: pid for pid in range(1, cfg.npoints + 1)}
        fib = fibre(moved)
        assert keyed_report(locus_report(fib, triples=True), same) == keyed_report(rep, ids)
        moved_curve = substitute_linear(curve, inverse(g))
        assert classify_curve(fib, moved_curve) == {ids[pid] for pid in singular}
        for pid, fp in enumerate(cfg.fat, len(cfg.simple) + 1):
            free = fat_ideal_free(*germ_at_fat_point(curve, fp))
            assert fat_ideal_free(*germ_at_fat_point(moved_curve, moved.points[pid - 1])) == free


# extra subsets of the tiny-prime run, where a configuration has the points
TINY_PRIME_SUBSETS = ((1, 2, 3), (3, 1), (1, 2, 3, 4))


def tiny_prime_configs():
    """SEEDED_STRATA up to degree 6, and the Remark 6 reference.

    At a tiny prime nearly every pair and triple is ranked exactly; at
    degrees 7 and 8 that takes 0.4-2.6 s per configuration.
    """
    cfgs = [seeded_stratum_config(*p.values) for p in SEEDED_STRATA if p.values[0] <= 6]
    return cfgs + [ref_config()]


def output_bytes(cfg):
    """The outputs that rest on certificates mod P, as text.

    The report with triples and extra subsets, the kronecker payload, a
    curve imposed at the first three points with its classification,
    and every point's normal_space_dim.
    """
    fib = fibre(cfg)
    subsets = [s for s in TINY_PRIME_SUBSETS if max(s) <= cfg.npoints]
    rep = locus_report(fib, pairs=True, triples=True, extra_subsets=subsets)
    curve = impose_singularities(fib, range(1, min(3, cfg.npoints) + 1), SplitMix64(cfg.degree))
    return "\n".join([
        canonical_dumps(report_to_dict(rep)),
        canonical_dumps(resolution_to_dict(kronecker_from_points(cfg))),
        str(curve),
        repr(sorted(classify_curve(fib, curve))),
        repr([normal_space_dim(fib, pid) for pid in range(1, cfg.npoints + 1)]),
    ])


@cache
def real_prime_bytes():
    with pytest.MonkeyPatch.context() as m:
        m.setattr(exactalg, "_PRIME", P)
        return [output_bytes(cfg) for cfg in tiny_prime_configs()]


class TestTinyPrime:
    """At P = 2 and 3 every fallback runs and no output byte changes.

    Each certificate is nonzero mod P only when the exact value is
    nonzero, so a wrong fallback shows only where certificates vanish,
    which at the real prime almost never happens.  The test counts each
    kind of fallback, so that it cannot pass without running them: a
    fibre with no members, a point with no RREF, a pair or triple whose
    value is 0, and the exact path of rank_of_rows.
    """

    def test_outputs_match_the_real_prime(self, tiny_prime, monkeypatch):
        want = real_prime_bytes()
        counts = Counter()

        def count(name, fn, fell_back):
            def counted(*args):
                out = fn(*args)
                counts[name] += fell_back(args, out)
                return out

            return counted

        # rank_of_rows reads echelon_mod_p through exactalg; linsys and
        # singloci hold their own bindings, which stay uncounted
        monkeypatch.setattr(exactalg, "echelon_mod_p", count(
            "exact rank", exactalg.echelon_mod_p, lambda args, out: out is None))
        monkeypatch.setattr(singloci, "_point_echelon", count(
            "no RREF", singloci._point_echelon, lambda args, out: out[1] is None))
        # points, pairs and triples pass their value; extra subsets pass none
        monkeypatch.setattr(singloci, "_locus_codim", count(
            "zero pair or triple", singloci._locus_codim,
            lambda args, out: len(args) == 3 and args[2] == 0 and len(args[1]) > 2))
        cfgs = tiny_prime_configs()
        assert [output_bytes(cfg) for cfg in cfgs] == want
        counts["no members"] = sum(not fibre(cfg).members for cfg in cfgs)
        kinds = ("exact rank", "no RREF", "zero pair or triple", "no members")
        assert all(counts[k] for k in kinds), counts
