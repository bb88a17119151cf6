"""Freeness of fat-point ideals on curve germs, against the jet oracle."""

from fractions import Fraction

import pytest

from sheafloci import localfree
from sheafloci.errors import ConfigError
from sheafloci.linsys import fibre, random_weights
from sheafloci.localfree import (
    CurveGerm,
    FatIdealData,
    _nakayama_dim,
    branch_restriction,
    fat_ideal_free,
    germ_at_fat_point,
    is_regular,
    jet_principality_oracle,
    membership,
    random_membership_germ,
    u_at_zero,
)
from sheafloci.poly import HomPoly, LocalPoly, parse_local
from sheafloci.rng import SplitMix64
from sheafloci.schemes import _draw_config, random_config
from sheafloci.singloci import classify_curve, impose_singularities

from conftest import (
    ExactFibre,
    ambient_singular_subspace,
    identity_matrix,
    naive_echelon,
    rank_modulo,
)


def germ(text):
    return CurveGerm(parse_local(text))


def double_point(h=()):
    return FatIdealData.of((0,) + tuple(h), 2)


def dense_dim(g, d, trunc):
    """dim I/mI in k[x,y]/(m^trunc) as a dense Fraction rank.

    The rows of mI are LocalPoly products of monomials with the curve
    equation and the two ideal generators, rather than the monomial
    shifts the jet oracle builds, and they are ranked with the Fraction
    oracle rather than the integer core.
    """
    mons = [(i, s - i) for s in range(trunc) for i in range(s + 1)]
    index = {m: n for n, m in enumerate(mons)}

    def vec(p):
        row = [Fraction(0)] * len(mons)
        for e, c in p.as_dict().items():
            if e in index:
                row[index[e]] = c
        return row

    shared = []
    for (i, j) in mons:
        mono = LocalPoly.from_dict({(i, j): Fraction(1)})
        shared.append(vec(mono * g.f))
        if i + j >= 1:
            shared.append(vec(mono * d.x_minus_h()))
            shared.append(vec(mono * d.y_power()))
    gens = [vec(d.x_minus_h()), vec(d.y_power())]
    return rank_modulo(naive_echelon(shared), gens)


class TestValidation:
    def test_zero_germ_rejected(self):
        with pytest.raises(ConfigError):
            CurveGerm(parse_local("x - x"))

    def test_germ_must_pass_through_origin(self):
        with pytest.raises(ConfigError):
            CurveGerm(parse_local("1 + x"))

    def test_ideal_data_constraints(self):
        with pytest.raises(ConfigError):
            FatIdealData.of((1,), 2)
        with pytest.raises(ConfigError):
            FatIdealData.of((0, 1, 2), 2)
        with pytest.raises(ConfigError):
            FatIdealData.of((), 0)
        assert FatIdealData.of((0, 1, 0), 2).h == (0, 1)

    def test_generators(self):
        data = FatIdealData.of((0, 2), 3)
        assert data.x_minus_h() == parse_local("x - 2*y")
        assert data.y_power() == parse_local("y^3")


class TestCanonicalGerms:
    def test_node_with_branch_in_ideal_is_not_free(self):
        # f = x y: the branch x = 0 lies on the curve, u vanishes identically.
        g = germ("x*y")
        d = double_point()
        assert membership(g, d)
        assert not is_regular(g)
        assert u_at_zero(g, d) == 0
        assert not fat_ideal_free(g, d)
        assert not jet_principality_oracle(g, d)

    def test_transverse_node_is_free(self):
        g = germ("x^2 - y^2")
        d = double_point()
        assert membership(g, d)
        assert not is_regular(g)
        assert u_at_zero(g, d) == 1
        assert fat_ideal_free(g, d)
        assert jet_principality_oracle(g, d)

    def test_smooth_curve_is_free(self):
        g = germ("x - y^2")
        d = double_point()
        assert membership(g, d)
        assert is_regular(g)
        assert fat_ideal_free(g, d)
        assert jet_principality_oracle(g, d)

    def test_cusp_is_not_free(self):
        g = germ("x^2 - y^3")
        d = double_point()
        assert membership(g, d)
        assert u_at_zero(g, d) == 0
        assert not fat_ideal_free(g, d)
        assert not jet_principality_oracle(g, d)

    def test_double_line_is_free(self):
        # f = x^2 contains (x, y^2) only as a scheme through u: f(0, y) = 0,
        # so u vanishes; not free.  But y^2 = 0 contains it with u = -1.
        g = germ("y^2")
        d = double_point()
        assert membership(g, d)
        assert u_at_zero(g, d) == -1
        assert fat_ideal_free(g, d)
        assert jet_principality_oracle(g, d)
        g2 = germ("x^2")
        assert membership(g2, d)
        assert u_at_zero(g2, d) == 0
        assert not fat_ideal_free(g2, d)
        assert not jet_principality_oracle(g2, d)

    def test_tangent_branch_through_node(self):
        # Branch x = y of the node x^2 = y^2 carries the double point.
        g = germ("x^2 - y^2")
        d = FatIdealData.of((0, 1), 2)
        assert membership(g, d)
        assert u_at_zero(g, d) == 0
        assert not fat_ideal_free(g, d)
        assert not jet_principality_oracle(g, d)

    def test_membership_failures(self):
        g = germ("y - x^2")
        d = double_point()
        assert not membership(g, d)
        with pytest.raises(ConfigError):
            fat_ideal_free(g, d)
        with pytest.raises(ConfigError):
            u_at_zero(g, d)
        with pytest.raises(ConfigError):
            jet_principality_oracle(g, d)


class TestMaximalIdeal:
    """The multiplicity-1 ideal (x, y) is the maximal ideal of the point."""

    MAXIMAL = FatIdealData.of((), 1)

    def test_regular_point(self):
        assert fat_ideal_free(germ("y - x^2"), self.MAXIMAL)
        assert fat_ideal_free(germ("x + y + x*y"), self.MAXIMAL)

    def test_singular_point(self):
        assert not fat_ideal_free(germ("x*y"), self.MAXIMAL)
        assert not fat_ideal_free(germ("x^2 - y^3"), self.MAXIMAL)

    def test_jet_oracle_agrees(self):
        for text in ("y - x^2", "x*y", "x^2 - y^3", "x + y^3"):
            g = germ(text)
            assert fat_ideal_free(g, self.MAXIMAL) == jet_principality_oracle(g, self.MAXIMAL)


class TestJetOracle:
    def test_nakayama_dims(self):
        d = double_point()
        assert _nakayama_dim(germ("x*y"), d) == 2
        assert _nakayama_dim(germ("x^2 - y^2"), d) == 1
        assert _nakayama_dim(germ("x - y^2"), d) == 1

    def test_sparse_elimination_matches_dense_ranks(self):
        # Recompute dim I/mI as the dense rank of the two generators modulo
        # the rows of mI, using the Fraction oracle rather than the integer
        # core the jet check uses, and rows built as LocalPoly products
        # rather than monomial shifts.
        # Criterion 6's canonical germs and seeded mult 1-3 germs, at every
        # truncation from m + 1 to 8.  In x - y^3 = x - y * y^2 the cofactor
        # of y^2 vanishes at the origin, so only the multiples of y^2 put x
        # into mI.
        rng = SplitMix64(90)
        cases = [
            (germ(text), double_point())
            for text in ("x*y", "x^2 - y^2", "x - y^2", "x - y^3")
        ]
        cases += [
            random_membership_germ(rng, 1 + k % 3, factor_degree=1) for k in range(6)
        ]
        for g, d in cases:
            dim = _nakayama_dim(g, d)
            assert [dense_dim(g, d, t) for t in range(d.mult + 1, 9)] == [dim] * (8 - d.mult)

    def test_dense_ranks_at_the_benchmark_shape(self):
        # The cli workload's germs: A (x - h) + B y^m with A, B of degree 2,
        # against the dense rank at m + 1 and at 2m + deg f + 2, far past
        # the order the oracle works at.  Seed 72 draws a free double point
        # and a non-free triple point.
        rng = SplitMix64(72)
        cases = [random_membership_germ(rng, mult) for mult in (2, 3)]
        assert [fat_ideal_free(g, d) for g, d in cases] == [True, False]
        for g, d in cases:
            t = 2 * d.mult + g.f.total_degree() + 2
            dim = _nakayama_dim(g, d)
            assert (dense_dim(g, d, d.mult + 1), dense_dim(g, d, t)) == (dim, dim)

    def test_order_m_plus_one_is_exact(self):
        # m^(m+1) lies in mI + (f), so cutting the jets at m + 1 keeps the
        # dimension: the oracle matches the criterion on seeded germs whose
        # branch h is not zero, the dense rank at m + 1 matches every higher
        # order, and order m falls short on the node.
        rng = SplitMix64(34)
        seen = {True: 0, False: 0}
        for k in range(300):
            mult = 1 + k % 7
            while True:
                g, d = random_membership_germ(rng, mult, factor_degree=1 + k % 3)
                if mult == 1 or any(d.h):
                    break
            verdict = fat_ideal_free(g, d)
            assert (_nakayama_dim(g, d) == 1) == verdict, (k, str(g.f), d)
            seen[verdict] += 1
        assert min(seen.values()) > 0, seen
        cases = [
            (germ("x*y"), double_point()),
            (germ("x^2 - y^3"), double_point((1,))),
            (germ("x - y^3"), double_point()),
        ]
        cases += [random_membership_germ(rng, mult, factor_degree=1) for mult in (1, 2, 3)]
        for g, d in cases:
            low = dense_dim(g, d, d.mult + 1)
            assert [dense_dim(g, d, t) for t in range(d.mult + 2, 9)] == [low] * (7 - d.mult)
        assert dense_dim(germ("x*y"), double_point(), 2) == 1
        assert dense_dim(germ("x*y"), double_point(), 3) == 2

    def test_dims_never_substitute_or_multiply(self, monkeypatch):
        # The oracle checks the criterion, which reads f(h(y), y); its rows
        # are monomial shifts, so it must reach neither that substitution
        # nor a LocalPoly product, whatever order the rows go in.
        cases = [
            (germ(text), double_point()) for text in ("x*y", "x^2 - y^2", "x - y^2")
        ]
        rng = SplitMix64(41)
        cases += [random_membership_germ(rng, 1 + k % 3) for k in range(6)]
        expected = [_nakayama_dim(g, d) for g, d in cases]

        def forbidden(*args, **kwargs):
            raise AssertionError("the jet oracle must not substitute or multiply")

        monkeypatch.setattr(LocalPoly, "substitute_x", forbidden)
        monkeypatch.setattr(LocalPoly, "__mul__", forbidden)
        monkeypatch.setattr(localfree, "branch_restriction", forbidden)
        assert [_nakayama_dim(g, d) for g, d in cases] == expected

    def test_branch_restriction(self):
        g = germ("x^2 - y^3")
        d = FatIdealData.of((0, 1), 2)
        # f(y, y) = y^2 - y^3
        assert branch_restriction(g, d) == (
            Fraction(0),
            Fraction(0),
            Fraction(1),
            Fraction(-1),
        )


class TestSeededGerms:
    def test_deterministic(self):
        a = random_membership_germ(SplitMix64(5), 2)
        b = random_membership_germ(SplitMix64(5), 2)
        assert a == b

    def test_membership_by_construction(self):
        rng = SplitMix64(71)
        for _ in range(25):
            mult = 1 + rng.below(3)
            g, d = random_membership_germ(rng, mult)
            assert membership(g, d)

    def test_criterion_matches_oracle(self):
        rng = SplitMix64(2024)
        seen = {True: 0, False: 0}
        for _ in range(40):
            mult = 1 + rng.below(2)
            g, d = random_membership_germ(rng, mult, factor_degree=1)
            verdict = fat_ideal_free(g, d)
            assert verdict == jet_principality_oracle(g, d)
            seen[verdict] += 1
        assert seen[True] > 0
        assert seen[False] > 0


class TestGlobalBridge:
    def test_germ_of_monomial_curve(self):
        from sheafloci.schemes import FatPoint, SimplePoint

        fp = FatPoint.of(SimplePoint.of(1, 0, 0), identity_matrix(3), (0,), 2)
        f = HomPoly.monomial(4, (2, 2, 0))
        g, d = germ_at_fat_point(f, fp)
        assert g.f == parse_local("y^2")
        assert d.mult == 2
        assert fat_ideal_free(g, d)

    @pytest.mark.parametrize(
        "d,stratum", [(d, s) for d in (5, 6, 7) for s in ("generic", "double")]
    )
    def test_freeness_at_every_point_agrees_with_classification(self, d, stratum):
        # a simple point is the m = 1 branch of its frame, whose ideal (x, y)
        # is free on the germ exactly when the curve is smooth there
        cfg = random_config(d, d, stratum=stratum)
        fib = fibre(cfg)
        rng = SplitMix64(d)
        n = cfg.npoints
        for ids in ([1], [2, n - 1], [1, 3, n]):
            f = impose_singularities(fib, ids, rng)
            singular = classify_curve(fib, f)
            assert singular == set(ids)
            for pid, pt in enumerate(cfg.points, 1):
                assert fat_ideal_free(*germ_at_fat_point(f, pt)) == (pid not in singular)

    def test_classification_agrees_with_local_freeness(self):
        # a double point, then a triple point
        for cfg in (random_config(5, 11, stratum="double"), _draw_config(6, 3, (3,))):
            fib = fibre(cfg)
            fat_id = cfg.npoints
            fp = cfg.fat[0]
            sub = ambient_singular_subspace(fib, fat_id)
            basis = sub.basis()
            checked = 0
            for v in basis:
                f = HomPoly.from_coeffs(cfg.degree, v)
                if f.is_zero():
                    continue
                g, d = germ_at_fat_point(f, fp)
                assert d.mult == fp.mult
                assert not fat_ideal_free(g, d)
                assert fat_id in classify_curve(fib, f)
                checked += 1
            assert checked > 0
            rng = SplitMix64(15)
            exact = ExactFibre(fib)
            for _ in range(5):
                f = exact.element(random_weights(rng, fib.proj_dim + 1))
                g, d = germ_at_fat_point(f, fp)
                assert fat_ideal_free(g, d) == (fat_id not in classify_curve(fib, f))
