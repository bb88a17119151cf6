"""The eight acceptance checks.

Each test emits exactly one pass/fail line through the pytest terminal
reporter while capture is suspended, so the lines reach the terminal
under pytest's default capture too.  All
comparisons are exact: every value is a Fraction or an integer and
tolerances are zero throughout.  Runtime budgets are asserted where
stated, with fixture construction time billed to the criterion that
first consumes the fixture.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import pytest

from conftest import (
    REFERENCE_POINTS_D6,
    ExactFibre,
    horner_eval,
    partial,
    proportional_pair_module,
    zero_column_module,
)

from sheafloci.exactalg import QMatrix, kernel, rank_of_rows
from sheafloci.kronecker import (
    injectivity_check,
    kronecker_from_points,
    maximal_minors,
    resolution_check,
)
from sheafloci.linsys import fibre
from sheafloci.localfree import (
    CurveGerm,
    FatIdealData,
    fat_ideal_free,
    jet_principality_oracle,
    random_membership_germ,
)
from sheafloci.poly import HomPoly, parse_local
from sheafloci.rng import SplitMix64
from sheafloci.schemes import (
    PointConfig,
    SimplePoint,
    expected_length,
    membership_conditions,
    random_config,
)
from sheafloci.singloci import (
    classify_curve,
    impose_singularities,
    locus_report,
    normal_space_dim,
    singular_conditions,
)

GENERIC_DEGREES = (4, 5, 6, 7)
DOUBLE_DEGREES = (4, 5, 6)
RUNS = 50


@pytest.fixture(scope="module")
def line(request):
    """Writer that reaches the terminal despite fd-level capture."""
    plugins = request.config.pluginmanager
    reporter = plugins.get_plugin("terminalreporter")
    capman = plugins.get_plugin("capturemanager")

    def write(text):
        with capman.global_and_fixture_disabled() if capman else nullcontext():
            if reporter is not None:
                reporter.write_line(text)
            else:
                print(text)

    return write


@contextmanager
def criterion(line, num, label):
    """Print the criterion's verdict line, ending in its wall time.

    A body that bills fixture time sets note["seconds"]; otherwise the
    time of the body itself is printed.
    """
    note = {}
    t0 = time.perf_counter()
    try:
        yield note
    except BaseException:
        line(f"criterion {num}: FAIL  {label}")
        raise
    seconds = note.get("seconds", time.perf_counter() - t0)
    line(f"criterion {num}: PASS  {label}  [{seconds:.1f}s]")


@pytest.fixture(scope="module")
def generic_data():
    """50 seeded generic configurations with their fibres, per degree."""
    t0 = time.perf_counter()
    data = {}
    for d in GENERIC_DEGREES:
        data[d] = []
        for i in range(RUNS):
            cfg = random_config(d, seed=1000 * d + i)
            data[d].append((cfg, fibre(cfg)))
    return data, time.perf_counter() - t0


@pytest.fixture(scope="module")
def double_data():
    """50 seeded one-double-point configurations with fibres, per degree."""
    t0 = time.perf_counter()
    data = {}
    for d in DOUBLE_DEGREES:
        data[d] = []
        for i in range(RUNS):
            cfg = random_config(d, seed=2000 * d + i, stratum="double")
            data[d].append((cfg, fibre(cfg)))
    return data, time.perf_counter() - t0


@pytest.fixture(scope="module")
def resolutions(generic_data):
    data, _ = generic_data
    out = []
    for d in DOUBLE_DEGREES:
        for cfg, fib in data[d]:
            out.append((cfg, kronecker_from_points(cfg)))
    return out


def test_criterion_1_reference_subset_codimensions(line):
    with criterion(line, 1, "reference subsets of 4 and 5 loci have codim 8 and 9") as note:
        t0 = time.perf_counter()
        cfg = PointConfig.of(6, [SimplePoint.of(*p) for p in REFERENCE_POINTS_D6])
        fib = fibre(cfg)
        rep = locus_report(
            fib, pairs=False, extra_subsets=[(1, 2, 3, 4), (1, 2, 3, 4, 5)]
        )
        got = dict(rep.subset_codims)
        assert got == {(1, 2, 3, 4): 8, (1, 2, 3, 4, 5): 9}
        note["seconds"] = time.perf_counter() - t0
        assert note["seconds"] < 5.0


def test_criterion_2_generic_stratum_codimensions(line, generic_data):
    data, build_seconds = generic_data
    with criterion(
        line, 2, "200 generic configs: fibre 3d-1, loci 2, pairs 4, triples 6"
    ) as note:
        t0 = time.perf_counter()
        for d in GENERIC_DEGREES:
            for cfg, fib in data[d]:
                assert fib.proj_dim == 3 * d - 1
                rep = locus_report(fib, pairs=True, triples=True)
                for _pid, _kind, codim in rep.point_codims:
                    assert codim == 2
                for _i, _j, codim in rep.pair_codims:
                    assert codim == 4
                for _i, _j, _k, codim, collinear in rep.triple_codims:
                    if not collinear:
                        assert codim == 6
        note["seconds"] = build_seconds + time.perf_counter() - t0
        assert note["seconds"] < 120.0


def test_criterion_3_double_point_codimensions(line, double_data):
    data, build_seconds = double_data
    with criterion(
        line, 3, "150 double-point configs: all l-1 loci codim 2 (u-functional)"
    ) as note:
        t0 = time.perf_counter()
        for d in DOUBLE_DEGREES:
            for cfg, fib in data[d]:
                assert cfg.npoints == expected_length(d) - 1
                rep = locus_report(fib, pairs=False)
                assert all(c == 2 for _, _, c in rep.point_codims)
                # the double point needs the unit functional: its gradient
                # conditions alone only cut codimension 1 in the fibre
                fat_id = cfg.npoints
                rows = singular_conditions(cfg, fat_id)
                space = ExactFibre(fib).space
                compressed = [space.compress_functional(r) for r in rows]
                assert rank_of_rows(compressed[:3]) == 1
                assert rank_of_rows(compressed) == 2
        note["seconds"] = build_seconds + time.perf_counter() - t0
        assert note["seconds"] < 120.0


def test_criterion_4_resolution_identity(line, resolutions):
    with criterion(line, 4, "150 resolutions: identity, minors vanish, minors span kernel"):
        assert len(resolutions) == 150
        for cfg, res in resolutions:
            n = res.degree - 1
            minors = maximal_minors(res.phi)
            assert resolution_check(res.phi, generators=res.generators, minors=minors)
            memb = QMatrix.from_rows(membership_conditions(cfg, res.degree - 2))
            for m in minors:
                assert all(v == 0 for v in memb.apply(m.coeffs))
            minor_rows = [list(m.coeffs) for m in minors]
            assert rank_of_rows(minor_rows) == n
            ker = kernel(memb)
            assert len(ker) == n
            assert rank_of_rows(minor_rows + ker) == n


def test_criterion_5_injectivity(line, resolutions):
    with criterion(line, 5, "injectivity holds on 150 built modules, fails on both families"):
        for _cfg, res in resolutions:
            assert injectivity_check(res.phi)
        l1, l2 = HomPoly.from_coeffs(1, (1, 2, -1)), HomPoly.from_coeffs(1, (3, 0, 1))
        for _cfg, res in resolutions:
            phi = res.phi
            assert not injectivity_check(zero_column_module(phi))
            scalars = [1 + (i % 3) for i in range(phi.nrows)]
            broken = proportional_pair_module(phi, l1, l2, scalars)
            assert not injectivity_check(broken)


def test_criterion_6_local_freeness_criterion_vs_oracle(line):
    with criterion(line, 6, "freeness criterion == jet oracle on 200 germs + 3 canonical"):
        canonical = [
            ("x*y", (0,), 2, False),
            ("x^2 - y^2", (0,), 2, True),
            ("x - y^2", (0,), 2, True),
        ]
        for text, h, mult, expected in canonical:
            germ = CurveGerm(parse_local(text))
            data = FatIdealData.of(h, mult)
            assert fat_ideal_free(germ, data) is expected
            assert jet_principality_oracle(germ, data) is expected
        free_seen = 0
        nonfree_seen = 0
        for i in range(200):
            rng = SplitMix64(5000 + i)
            germ, data = random_membership_germ(rng, mult=1 + i % 3)
            verdict = fat_ideal_free(germ, data)
            trunc = 2 * data.mult + germ.f.total_degree() + 2
            assert jet_principality_oracle(germ, data, trunc) == verdict
            assert jet_principality_oracle(germ, data, trunc + 2) == verdict
            free_seen += 1 if verdict else 0
            nonfree_seen += 0 if verdict else 1
        assert free_seen > 0 and nonfree_seen > 0


def _gradient_oracle_ids(cfg, f):
    """Points where all three partials vanish, evaluated independently."""
    parts = [partial(f, v) for v in range(3)]
    out = set()
    for pid in range(1, cfg.npoints + 1):
        _kind, p = cfg.point(pid)
        if all(horner_eval(q, p.coords) == 0 for q in parts):
            out.add(pid)
    return out


def test_criterion_7_classification(line, generic_data):
    data, _ = generic_data
    with criterion(line, 7, "classify_curve matches imposed sets and gradient oracle, 200x"):
        mismatches = 0
        for i in range(200):
            d = DOUBLE_DEGREES[i % 3]
            cfg, fib = data[d][i % RUNS]
            rng = SplitMix64(7000 + i)
            npoints = cfg.npoints
            if i % 4 == 3:
                targets = sorted({1 + i % npoints, 1 + (i + 1) % npoints})
            else:
                targets = [1 + i % npoints]
            f = impose_singularities(fib, targets, rng)
            got = classify_curve(fib, f)
            assert got == set(targets)
            if _gradient_oracle_ids(cfg, f) != got:
                mismatches += 1
        assert mismatches == 0


def test_criterion_8_normal_space_dimension(line, generic_data, double_data):
    gen, _ = generic_data
    dbl, _ = double_data
    with criterion(line, 8, "normal space dimension 2 at every point of every config"):
        for pool in (gen, dbl):
            for d in pool:
                for cfg, fib in pool[d]:
                    for pid in range(1, cfg.npoints + 1):
                        assert normal_space_dim(fib, pid) == 2


def test_verdict_lines_reach_the_terminal_under_default_capture():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py", "-k", "criterion_1"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "criterion 1: PASS" in proc.stdout
