"""Projective subspaces and fibres of the singular-locus bundle."""

import hashlib
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from sheafloci.errors import DegenerateError, GenericityError, ShapeError
from sheafloci.exactalg import _PRIME as P
from sheafloci.linsys import ProjSubspace, _sketch_matrix, fibre, random_weights
from sheafloci.poly import HomPoly, monomial_count, parse_homogeneous
from sheafloci.rng import SplitMix64
from sheafloci.schemes import PointConfig, SimplePoint, random_config

from conftest import (
    REFERENCE_POINTS_D6,
    SEEDED_STRATA,
    ExactFibre,
    horner_eval,
    seeded_stratum_config,
)


def ref_config():
    return PointConfig.of(6, [SimplePoint.of(*p) for p in REFERENCE_POINTS_D6])


def standard_d4_config():
    return PointConfig.of(
        4, [SimplePoint.of(1, 0, 0), SimplePoint.of(0, 1, 0), SimplePoint.of(0, 0, 1)]
    )


class TestProjSubspace:
    def test_whole_space(self):
        s = ProjSubspace.cut_by([], 5)
        assert s.codim == 0
        assert s.proj_dim == 5
        assert s.free_columns == (0, 1, 2, 3, 4, 5)
        assert s.contains([1, 2, 3, 4, 5, 6])

    def test_single_hyperplane(self):
        s = ProjSubspace.cut_by([[1, 0, 0]], 2)
        assert s.codim == 1
        assert s.proj_dim == 1
        assert s.contains([0, 1, 5])
        assert not s.contains([1, 0, 0])

    def test_redundant_rows_collapse(self):
        s = ProjSubspace.cut_by([[1, 1, 0], [2, 2, 0], [0, 0, 0]], 2)
        assert s.codim == 1

    def test_basis_spans_kernel(self):
        s = ProjSubspace.cut_by([[1, 0, -1, 0], [0, 1, 0, -1]], 3)
        b = s.basis()
        assert len(b) == 2
        for v in b:
            assert s.contains(v)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_compress_matches_evaluation_on_basis(self, data):
        # Oracle: the functional evaluated on each basis column, exactly.
        n = data.draw(st.integers(1, 6))
        dense = st.fractions(max_denominator=9)
        sparse = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), dense)
        row = st.lists(dense, min_size=n, max_size=n) | st.lists(
            sparse, min_size=n, max_size=n
        )
        s = ProjSubspace.cut_by(data.draw(st.lists(row, max_size=n)), n - 1)
        b = s.basis()
        func = data.draw(row)
        comp = s.compress_functional(func)
        assert len(comp) == len(b)
        for j, col in enumerate(b):
            assert comp[j] == sum(f * v for f, v in zip(func, col))


    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_compress_numerators_read_ints_and_fractions_alike(self, data):
        n = data.draw(st.integers(1, 6))
        ints = st.lists(st.integers(-50, 50), min_size=n, max_size=n)
        s = ProjSubspace.cut_by(data.draw(st.lists(ints, max_size=n)), n - 1)
        row = data.draw(ints)
        got = s.compress_numerators(row)
        assert got == s.compress_numerators([Fraction(a) for a in row])
        assert got[1] == s.den

    def test_compress_rejects_wrong_length(self):
        s = ProjSubspace.cut_by([[1, 2, 0, 3]], 3)
        with pytest.raises(ShapeError):
            s.compress_functional([1, 2, 3])


class TestFibre:
    def test_reference_dimensions(self):
        fib = fibre(ref_config())
        assert fib.degree == 6
        assert fib.proj_dim == 17
        exact = ExactFibre(fib)
        assert exact.space.ambient == monomial_count(6) - 1 == 27
        assert len(exact.basis_forms()) == 18

    def test_d4_dimensions(self):
        fib = fibre(standard_d4_config())
        assert fib.proj_dim == 11
        assert len(ExactFibre(fib).basis_forms()) == 12

    def test_basis_forms_vanish_on_scheme(self):
        cfg = ref_config()
        fib = fibre(cfg)
        for f in ExactFibre(fib).basis_forms():
            for p in cfg.simple:
                assert horner_eval(f, p.coords) == 0

    def test_element_round_trip(self):
        fib = fibre(standard_d4_config())
        coords = [Fraction(i - 5) for i in range(12)]
        exact = ExactFibre(fib)
        f = exact.element(coords)
        assert fib.contains(f)
        free = exact.space.free_columns
        assert [f.coeffs[j] for j in free] == coords

    def test_element_shape_check(self):
        fib = fibre(standard_d4_config())
        with pytest.raises(ShapeError):
            ExactFibre(fib).element([1, 2, 3])

    @pytest.mark.parametrize("d,stratum,mults", SEEDED_STRATA)
    def test_contains_matches_the_exact_subspace(self, d, stratum, mults):
        # seeded members, and each plus a monomial off the fibre
        fib = fibre(seeded_stratum_config(d, stratum, mults))
        exact = ExactFibre(fib)
        space = exact.space
        rng = SplitMix64(d)
        for _ in range(4):
            member = exact.element(random_weights(rng, fib.proj_dim + 1))
            coeffs = list(member.coeffs)
            while True:
                j = rng.randint(0, space.ambient)
                if not space.contains([int(i == j) for i in range(space.ambient + 1)]):
                    break
            coeffs[j] += rng.randint(1, 9)
            outsider = HomPoly.from_coeffs(d, coeffs)
            assert fib.contains(member) and space.contains(member.coeffs)
            assert not fib.contains(outsider) and not space.contains(outsider.coeffs)

    def test_contains_rejects_wrong_degree(self):
        fib = fibre(standard_d4_config())
        with pytest.raises(ShapeError):
            fib.contains(parse_homogeneous("x0^2"))

    def test_random_element_is_member_and_deterministic(self):
        fib = fibre(ref_config())
        exact = ExactFibre(fib)
        a = exact.element(random_weights(SplitMix64(5), fib.proj_dim + 1))
        b = exact.element(random_weights(SplitMix64(5), fib.proj_dim + 1))
        assert a == b
        assert fib.contains(a)
        assert not a.is_zero()

    def test_compress_functional_rank_counts_fibre_codim(self):
        # Evaluation at a point off the scheme cuts the fibre by one.
        cfg = ref_config()
        fib = fibre(cfg)
        from sheafloci.schemes import branch_rows

        row = branch_rows(SimplePoint.of(3, 1, 1), 6, [0])[0]
        comp = ExactFibre(fib).space.compress_functional(row)
        assert any(c != 0 for c in comp)

    def test_double_point_fibre(self):
        cfg = random_config(5, 11, stratum="double")
        fib = fibre(cfg)
        assert fib.proj_dim == 14

    def test_genericity_error_carries_certificate(self):
        pts = [SimplePoint.of(1, t, t * t) for t in range(6)]
        cfg = PointConfig.of(5, pts)
        with pytest.raises(GenericityError) as exc:
            fibre(cfg)
        cert = exc.value.certificate
        assert cert is not None
        assert cert.degree == 2
        assert not cert.is_zero()
        for p in pts:
            assert horner_eval(cert, p.coords) == 0

    def test_collinear_d4_fails_genericity(self):
        pts = [SimplePoint.of(1, t, 0) for t in range(3)]
        cfg = PointConfig.of(4, pts)
        with pytest.raises(GenericityError):
            fibre(cfg)

    def test_codimension_invariant_raises_typed_error(self, monkeypatch):
        # The check must survive python -O, so it cannot be an assert.
        import sheafloci.linsys as linsys

        # the first membership row repeated: 11 rows of rank 10
        rows = linsys.membership_conditions
        monkeypatch.setattr(
            linsys, "membership_conditions", lambda cfg, k: rows(cfg, k) + rows(cfg, k)[:1]
        )
        with pytest.raises(DegenerateError) as info:
            fibre(ref_config())
        assert (info.value.expected, info.value.actual) == (11, 10)


class TestMembers:
    """The six fibre members mod P that every locus certificate reads.

    A member off ker M mod P, or with the wrong free entries, would let
    a certificate pass for rows that are dependent over Q.
    """

    def check(self, fib):
        free = ExactFibre(fib).space.free_columns
        sketch = _sketch_matrix(len(free))
        assert len(fib.members) == len(sketch) == 6
        for q, col in zip(fib.members, sketch):
            assert all(0 <= a < P for a in q)
            assert [q[j] for j in free] == [a % P for a in col]
            assert not any(sum(map(mul, row, q)) % P for row in fib.membership)

    @pytest.mark.parametrize("d,stratum,mults", SEEDED_STRATA)
    def test_seeded_strata(self, d, stratum, mults):
        self.check(fibre(seeded_stratum_config(d, stratum, mults)))

    def test_remark6_reference(self):
        self.check(fibre(ref_config()))

    def test_members_are_pinned(self):
        digest = hashlib.sha256()
        for d in range(5, 9):
            for stratum in ("generic", "double"):
                for seed in (1, 2, 3):
                    fib = fibre(random_config(d, seed, stratum=stratum))
                    digest.update(repr(fib.members).encode())
        assert digest.hexdigest() == (
            "2707f69827a686169490806a304f3da5ddf63a1d5fc5d97516d77861f8ca6b6b"
        )
