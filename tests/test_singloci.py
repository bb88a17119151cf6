"""Singular-sheaf loci: codimensions, transversality, classification."""

from fractions import Fraction
from itertools import combinations

import pytest

from sheafloci.errors import ConfigError, DegenerateError, NotInFibreError
from sheafloci.exactalg import QMatrix, inverse, rank_of_rows
from sheafloci.linsys import ProjSubspace, fibre
from sheafloci.poly import HomPoly, monomial_index, monomials
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
    _compressed_block,
    asserted_violations,
    classify_curve,
    gradient_rows,
    impose_singularities,
    locus_report,
    normal_space_dim,
    singular_conditions,
)

from conftest import (
    REFERENCE_POINTS_D6,
    ambient_codim,
    ambient_singular_subspace,
    horner_eval,
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
            horner_eval(f.partial(v), support.coords) for v in range(3)
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
                direct = horner_eval(f.partial(v), pt.coords)
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
        sc = singular_conditions(cfg, 1)
        assert sc.kind == "simple"
        assert len(sc.rows) == 3

    def test_fat_point_has_four_rows(self):
        cfg = random_config(5, 11, stratum="double")
        sc = singular_conditions(cfg, cfg.npoints)
        assert sc.kind == "fat"
        assert len(sc.rows) == 4

    def test_standard_position_span(self):
        # Modulo the fibre, the conditions at (1:0:0) coincide with the
        # coefficient functionals of x0^(d-1) x1 and x0^(d-1) x2.
        cfg = standard_d4_config()
        fib = fibre(cfg)
        sc = singular_conditions(cfg, 1)
        block = [fib.space.compress_functional(list(r)) for r in sc.rows]
        n_mono = len(monomials(4))
        indicators = []
        for exp in ((3, 1, 0), (3, 0, 1)):
            row = [Fraction(0)] * n_mono
            row[monomial_index(4, exp)] = Fraction(1)
            indicators.append(fib.space.compress_functional(row))
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
        monkeypatch.setattr(singloci, "_compressed_block", lambda fib, pid: [[1]])
        with pytest.raises(DegenerateError) as err:
            normal_space_dim(fib, 3)
        assert (err.value.expected, err.value.actual) == (2, 1)

    def test_u_row_is_needed_at_fat_point(self):
        # The gradient alone cuts only one condition on the fibre; the
        # order-m functional supplies the second.
        cfg = random_config(5, 11, stratum="double")
        fib = fibre(cfg)
        sc = singular_conditions(cfg, cfg.npoints)
        grad_only = [fib.space.compress_functional(list(r)) for r in sc.rows[:3]]
        assert rank_of_rows(grad_only) == 1
        full = [fib.space.compress_functional(list(r)) for r in sc.rows]
        assert rank_of_rows(full) == 2

    def test_singular_subspace_dimensions(self):
        cfg = ref_config()
        fib = fibre(cfg)
        sub = ambient_singular_subspace(fib, 4)
        assert sub.codim == fib.space.codim + 2
        assert sub.proj_dim == fib.proj_dim - 2
        for j in range(min(3, sub.basis().cols)):
            f = HomPoly.from_coeffs(6, sub.basis().col(j))
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
        f = fib.random_element(SplitMix64(8))
        assert classify_curve(fib, f) == set()
        assert oracle_classify(fib.config, f) == set()

    def test_matches_oracle_on_double_stratum(self):
        cfg = random_config(5, 11, stratum="double")
        fib = fibre(cfg)
        fat_id = cfg.npoints
        sub = ambient_singular_subspace(fib, fat_id)
        basis = sub.basis()
        hits = 0
        for j in range(basis.cols):
            f = HomPoly.from_coeffs(5, basis.col(j))
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
            membership_conditions(cfg, 5) + [list(r) for r in sc.rows[:3]],
            fib.space.ambient,
        )
        found = False
        basis = sub.basis()
        u_row = list(sc.rows[3])
        for j in range(basis.cols):
            f = HomPoly.from_coeffs(5, basis.col(j))
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

    def test_rejects_fat_targets(self):
        cfg = random_config(5, 11, stratum="double")
        fib = fibre(cfg)
        with pytest.raises(ConfigError):
            impose_singularities(fib, [cfg.npoints], SplitMix64(1))

    def test_rejects_empty(self):
        fib = fibre(ref_config())
        with pytest.raises(ConfigError):
            impose_singularities(fib, [], SplitMix64(1))

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
                for row in singular_conditions(cfg, pid).rows:
                    assert sum(r * c for r, c in zip(row, f.coeffs)) == 0
            assert classify_curve(fib, f) == set(ids)

    def test_all_reference_points_leave_no_curve(self):
        # The ten blocks have rank 18, every free coordinate of the fibre.
        fib = fibre(ref_config())
        ids = range(1, 11)
        rows = [row for pid in ids for row in _compressed_block(fib, pid)]
        assert rank_of_rows(rows) == len(fib.space.free_columns) == 18
        with pytest.raises(DegenerateError, match="no curve"):
            impose_singularities(fib, ids, SplitMix64(1))


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
    """Record (rows, columns, rank) of every singloci.rank_of_rows call."""
    import sheafloci.singloci as singloci

    original = singloci.rank_of_rows
    calls = []

    def counting(rows):
        r = original(rows)
        calls.append((len(rows), len(rows[0]) if rows else 0, r))
        return r

    monkeypatch.setattr(singloci, "rank_of_rows", counting)
    return calls


class TestSketch:
    """Subsets of at most six rows are first ranked on per-point sketches."""

    @pytest.mark.parametrize("stratum", ["generic", "double"])
    def test_short_sketches_fall_back_to_the_blocks(self, monkeypatch, stratum):
        import sheafloci.singloci as singloci

        fib = fibre(random_config(5, 1, stratum=stratum))
        extra = [(1, 2, 3), (1, 2, 3, 4)]
        expected = locus_report(fib, pairs=True, triples=True, extra_subsets=extra)
        # one nonzero column: every sketch of two or more rows has rank 1
        monkeypatch.setattr(
            singloci, "_sketch_matrix", lambda n: ((1,) * n,) + ((0,) * n,) * 5
        )
        calls = count_rank_calls(monkeypatch)
        rep = locus_report(fib, pairs=True, triples=True, extra_subsets=extra)
        assert rep == expected
        # a subset of at most six rows ranks its sketch, then its blocks;
        # (1, 2, 3, 4) stacks 8 rows and ranks only its blocks
        small = len(rep.pair_codims) + len(rep.triple_codims) + 1
        assert len(calls) == 2 * small + 1
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
        # blocks have 18 columns at degree 6, sketches 6; the subsets of
        # 4 and 5 points stack 8 and 10 rows and skip the sketch
        sketch_calls = [(rows, r) for rows, cols, r in calls if cols == 6]
        assert len(sketch_calls) == subsets - 2
        assert all(r == rows for rows, r in sketch_calls)
        assert len(calls) == subsets


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
            rows.extend(singular_conditions(cfg, pid).rows)
        rows.extend(membership_conditions(cfg, degree))
        space = fibre(cfg).space
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
            lead = next(c for c in fp.support.canonical() if c)
            q = rng.randint(2, 9) * abs(int(lead))
            chart = QMatrix.from_rows([[q * a for a in fp.chart.row(i)] for i in range(3)])
            fat.append(FatPoint.of(fp.support, chart, fp.h, fp.mult))
        scaled = PointConfig.of(degree, simple, fat)
        assert any(c.denominator > 1 for p in simple for c in p.coords)
        for fp in fat:
            branch = fp.branch_coordinates()
            assert any(c.denominator > 1 for w in branch for c in w)

        fib, fib_scaled = fibre(cfg), fibre(scaled)
        assert fib_scaled.space == fib.space
        for pid in range(1, cfg.npoints + 1):
            assert _compressed_block(fib_scaled, pid) == _compressed_block(fib, pid)
        reports = [locus_report(f, pairs=True, triples=True) for f in (fib, fib_scaled)]
        assert report_to_dict(reports[1]) == report_to_dict(reports[0])
