"""Singular-sheaf loci: codimensions, transversality, classification."""

import hashlib
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from sheafloci.errors import ConfigError, DegenerateError, NotInFibreError
from sheafloci.exactalg import _PRIME as P, QMatrix, insert_row, inverse, rank_of_rows
from sheafloci.linsys import ProjSubspace, fibre, random_weights
from sheafloci.poly import HomPoly, monomial_count, monomial_index, monomials
from sheafloci.rng import SplitMix64
from sheafloci.schemes import (
    FatPoint,
    PointConfig,
    SimplePoint,
    collinear,
    fat_point_rows,
    membership_conditions,
    random_config,
    simple_point_row,
)
from sheafloci.serialize import report_to_dict
from sheafloci.singloci import (
    SingularLocusReport,
    _subset_minor,
    asserted_violations,
    classify_curve,
    condition_rows,
    gradient_rows,
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
    partial,
    random_fat_config,
    rank_mod_p,
    seeded_stratum_config,
)


def ref_config():
    return PointConfig.of(6, [SimplePoint.of(*p) for p in REFERENCE_POINTS_D6])


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
    cinv = inverse(fp.chart)
    npts = f.degree * fp.mult + 1
    ts = [Fraction(t) for t in range(npts)]
    vs = []
    for t in ts:
        h_t = sum(c * t**k for k, c in enumerate(fp.h))
        pt = cinv.apply((Fraction(1), t, h_t))
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

    def test_standard_point_rows_are_indicators(self):
        rows = gradient_rows(SimplePoint.of(1, 0, 0), 4)
        i0 = monomial_index(4, (4, 0, 0))
        i1 = monomial_index(4, (3, 1, 0))
        i2 = monomial_index(4, (3, 0, 1))
        for row, target, scale in ((rows[0], i0, 4), (rows[1], i1, 1), (rows[2], i2, 1)):
            assert row[target] == scale
            assert all(c == 0 for t, c in enumerate(row) if t != target)


class TestSingularConditions:
    def test_simple_point_has_three_rows(self):
        cfg = ref_config()
        assert len(singular_conditions(cfg, 1)) == 3

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
        cfg = random_fat_config(degree, seed, mults)
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
            if not collinear(*(cfg.support_of(pid) for pid in s))
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

        monkeypatch.setattr(linsys, "extend_mod_p", lambda pivots, rows: None)
        self.check(random_config(6, 4, stratum="double"))


class TestReport:
    def test_reference_report(self):
        fib = fibre(ref_config())
        rep = locus_report(
            fib,
            pairs=True,
            triples=True,
            extra_subsets=[(1, 2, 3, 4), (1, 2, 3, 4, 5)],
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
        assert subsets[(1, 2, 3, 4)] == 8
        assert subsets[(1, 2, 3, 4, 5)] == 9
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
    monomial_count(d) columns, passing a maximal minor mod P of S's
    residue block: a point its block's minor, a pair (i, j) a minor of
    j's block reduced by i's RREF, a triple the determinant of the two
    later points' reduced blocks.  Only a minor of 0 makes rank_of_rows
    read the rows.
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
        # the residues certify every locus of at most six condition rows;
        # the subsets of 4 and 5 points stack 8 and 10 condition rows
        # under the 10 membership rows, of 28 columns
        assert all(r == rows for rows, _cols, r, read in calls if not read)
        read = [(rows, cols, r) for rows, cols, r, read in calls if read]
        assert read == [(18, 28, 18), (20, 28, 19)]
        assert all(codim == 4 for _i, _j, codim in rep.pair_codims)
        assert dict(rep.subset_codims)[(1, 2, 3, 4, 5)] == 9

    def test_extra_subsets_of_more_than_six_rows_pass_no_certificate(
        self, monkeypatch
    ):
        import sheafloci.singloci as singloci

        # six residue columns have no nonzero minor on more than six
        # condition rows, so a subset of more than three points passes none
        original = singloci.rank_of_rows
        seen = []

        def spy(rows, minor=0):
            seen.append((len(rows), minor != 0))
            return original(rows, minor)

        monkeypatch.setattr(singloci, "rank_of_rows", spy)
        extra = [(1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4, 5)]
        locus_report(fibre(ref_config()), pairs=False, extra_subsets=extra)
        # ten points, then the subsets, under the 10 membership rows
        assert seen == [(12, True)] * 10 + [(16, True), (18, False), (20, False)]

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
        self.check(fibre(random_fat_config(degree, 2 * degree, mults)))

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
        monkeypatch.setattr(linsys, "extend_mod_p", lambda pivots, rows: None)
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
def test_subset_minors_are_nonzero_iff_full_row_rank_mod_p(blocks):
    # the point, pair and triple minors of locus_report's certificates
    for n in (1, 2, 3):
        stacked = [r for b in blocks[:n] for r in b]
        assert (_subset_minor(blocks[:n]) != 0) == (rank_mod_p(stacked) == 2 * n)


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
        cfg = random_fat_config(degree, degree, mults)
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
            rows.append(simple_point_row(p, degree))
            rows.extend(gradient_rows(p, degree))
        for fp in cfg.fat:
            rows.extend(fat_point_rows(fp, degree))
            rows.extend(fat_point_rows(fp, degree, orders=[fp.mult]))
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
            chart = QMatrix.from_rows([[q * a for a in fp.chart.row(i)] for i in range(3)])
            fat.append(FatPoint.of(fp.support, chart, fp.h, fp.mult))
        scaled = PointConfig.of(degree, simple, fat)
        assert any(c.denominator > 1 for p in simple for c in p.coords)
        for fp in fat:
            branch = fp.branch_coordinates()
            assert any(c.denominator > 1 for w in branch for c in w)

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
        return random_fat_config(degree, seed, mults)
    return random_config(degree, seed, stratum=stratum)


def full_echelon(exact, pid):
    """The echelon of every compressed singular row of the point, in order."""
    echelon = {}
    for row in singular_conditions(exact.fibre.config, pid):
        insert_row(echelon, exact.space.compress_numerators(row)[0])
    return list(echelon.values())


class TestEulerRow:
    """condition_rows leaves out the gradient row that Euler's relation fixes.

    With s a point's integer coordinates (its support's, for a fat point)
    and K its last nonzero index, sum_k s_k (gradient row k) is d times a
    membership row, so row K adds nothing modulo the fibre.
    """

    @pytest.mark.parametrize("degree,stratum,seed,mults", EULER_STRATA, ids=EULER_IDS)
    def test_weighted_gradient_rows_are_d_times_the_membership_row(
        self, degree, stratum, seed, mults
    ):
        cfg = euler_config(degree, stratum, seed, mults)
        for pid in range(1, cfg.npoints + 1):
            kind, data = cfg.point(pid)
            support = data if kind == "simple" else data.support
            s = support.primitive
            grad = gradient_rows(support, degree)
            weighted = [sum(map(mul, s, col)) for col in zip(*grad)]
            assert weighted == [degree * a for a in simple_point_row(support, degree)]
            if kind == "fat":
                # the order-0 branch row is a nonzero multiple of it
                (order0,) = fat_point_rows(data, degree, orders=[0])
                i = next(i for i, a in enumerate(order0) if a)
                assert weighted[i] != 0
                assert all(weighted[i] * b == order0[i] * a for a, b in zip(weighted, order0))

    @pytest.mark.parametrize("degree,stratum,seed,mults", EULER_STRATA, ids=EULER_IDS)
    def test_block_is_the_echelon_of_every_singular_row(self, degree, stratum, seed, mults):
        exact = ExactFibre(fibre(euler_config(degree, stratum, seed, mults)))
        for pid in range(1, exact.fibre.config.npoints + 1):
            assert exact.block(pid) == full_echelon(exact, pid)

    def test_reference_points_drop_every_index(self):
        # (1:0:0), (1:-2:0) and (0:0:1) drop gradient rows 0, 1 and 2
        fib = fibre(ref_config())
        exact = ExactFibre(fib)
        dropped = set()
        for pid in range(1, fib.config.npoints + 1):
            assert exact.block(pid) == full_echelon(exact, pid)
            s = fib.config.support_of(pid).primitive
            dropped.add(max(k for k in range(3) if s[k]))
        assert dropped == {0, 1, 2}


def tangent(fp):
    """t = frame (0, 1, h_1): the fat point's branch direction at y = 0."""
    frame = fp.frame
    h1 = fp.h[1] if len(fp.h) > 1 else 0
    return [frame.get(i, 1) + h1 * frame.get(i, 2) for i in range(3)]


FAT_STRATA = [x for x in EULER_STRATA if x[1] != "generic"]


class TestChainRule:
    """condition_rows keeps one gradient row at a fat point, by the chain rule.

    With t the branch's tangent direction, t . (gradient rows at the
    support) is a nonzero multiple of the order-1 branch row, as Euler's
    weighting by the support is of the order-0 row.  Both are membership
    rows, so the kept row j needs only (s x t)_j != 0.
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
        for pid in range(len(cfg.simple) + 1, cfg.npoints + 1):
            fp = cfg.point(pid)[1]
            t = tangent(fp)
            grad = gradient_rows(fp.support, degree)
            weighted = [sum(map(mul, t, col)) for col in zip(*grad)]
            (order1,) = fat_point_rows(fp, degree, orders=[1])
            i = next(i for i, a in enumerate(order1) if a)
            assert weighted[i] != 0
            assert all(weighted[i] * b == order1[i] * a for a, b in zip(weighted, order1))
            # the two rows kept span all four modulo the membership rows
            rows = singular_conditions(cfg, pid)
            kept = condition_rows(cfg, pid)
            assert kept[1] == list(rows[3]) and tuple(kept[0]) in rows[:3]
            assert normal_space_dim(fib, pid) == ambient_codim(fib, [pid]) == 2

    def test_standard_double_point_keeps_the_normal_gradient_row(self):
        # the double point (x1^2, x2) at (1:0:0): s x t = e2, so only the
        # x2-derivative is a condition modulo the membership rows
        fp = FatPoint.of(SimplePoint.of(1, 0, 0), identity_matrix(3), (), 2)
        cfg = PointConfig.of(4, [SimplePoint.of(0, 0, 1)], [fp])
        fib = fibre(cfg)
        assert condition_rows(cfg, 2)[0] == gradient_rows(fp.support, 4)[2]
        rep = locus_report(fib)
        assert rep.point_codims == ((1, "simple", 2), (2, "fat", 2))
        assert [codim for _i, _j, codim in rep.pair_codims] == [4]
        assert normal_space_dim(fib, 2) == ambient_codim(fib, [2]) == 2
