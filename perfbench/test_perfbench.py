"""The benchmark's own tests.

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
(the repository's tier-1 suite collects only tests/, so these stay out of it).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads as w  # noqa: E402

REFERENCE = w.load_reference()


def test_tracer_wraps_every_binding_and_restores():
    import sheafloci.exactalg as exactalg
    import sheafloci.linsys as linsys
    import sheafloci.poly as poly
    import sheafloci.schemes as schemes
    import sheafloci.singloci as singloci

    originals = {
        "rank_of_rows": exactalg.rank_of_rows,
        "kernel": exactalg.kernel,
        "det": exactalg.det,
        "mul": poly.HomPoly.__dict__["__mul__"],
    }
    t = tracer_mod.Tracer()
    with t:
        assert singloci.rank_of_rows is not originals["rank_of_rows"]
        assert linsys.kernel is not originals["kernel"]
        assert schemes.qdet is not originals["det"]  # bound as "det as qdet"
        assert poly.HomPoly.__dict__["__rmul__"] is poly.HomPoly.__dict__["__mul__"]
        assert poly.HomPoly.__dict__["__mul__"] is not originals["mul"]
        t.task = 0
        w.survey_answer(6, w.POOLS["g6"][0], "generic", True)
    assert singloci.rank_of_rows is originals["rank_of_rows"]
    assert linsys.kernel is originals["kernel"]
    assert schemes.qdet is originals["det"]
    assert poly.HomPoly.__dict__["__rmul__"] is originals["mul"]
    assert not t.absent
    assert t.agg["exactalg.rank"]["calls"] > 100
    assert t.agg["singloci.locus_report"]["subsets"] == 45 + 120
    assert t.span_count == sum(a["calls"] for a in t.agg.values())
    # self times never exceed the whole traced interval
    assert sum(a["self_s"] for a in t.agg.values()) <= max(t.s_end) - min(t.s_start) + 1e-6


def test_band_quantiles():
    values = [float(i) for i in range(1, 100)]  # percentile k of 1..99 is k
    assert run.band_quantile(values, 40, 60) == pytest.approx(50.0)
    assert run.band_quantile(values, 85, 95) == pytest.approx(90.0)
    clustered = [0.1] * 30 + [1.0] * 10
    assert run.band_quantile(clustered, 40, 60) == pytest.approx(0.1)
    assert 0.1 < run.band_quantile(clustered, 85, 95) <= 1.0


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracer_mod.TARGETS, "exactalg.gone", [("exactalg", "no_such_function")])
    t = tracer_mod.Tracer()
    with t:
        pass
    assert t.absent == {"exactalg.gone"}
    res = {"layers": {"exactalg.rank.calls": 3.0}, "absent": ["exactalg.gone"],
           "plain_times": [1.0], "traced_times": [1.25]}
    values, absent = run.per_layer(["exactalg.gone.calls", "exactalg.rank.calls", "trace.overhead_ratio"], res)
    assert absent == ["exactalg.gone.calls"]
    assert values == {"exactalg.rank.calls": 3.0, "trace.overhead_ratio": 0.8}


@pytest.mark.parametrize("name,task", [
    ("survey", w.Task("g6", 0)),
    ("survey", w.Task("dp6", 0)),
])
def test_checker_accepts_answers_and_catches_corruption(name, task):
    wl = w.WORKLOADS[name]
    answer = wl.execute(task)
    wl.check(task, answer, REFERENCE)
    with pytest.raises(w.Mismatch):
        wl.check(task, wl.corrupt(answer), REFERENCE)


def test_cycles_hold_the_mix_and_depend_on_the_seed():
    for wl in w.WORKLOADS.values():
        _, cycles = wl.schedule(7)
        first, second = next(cycles), next(cycles)
        for cycle in (first, second):
            counts = {}
            for task in cycle:
                counts[task.kind] = counts.get(task.kind, 0) + 1
            assert counts == wl.mix
        _, again = wl.schedule(7)
        assert next(again) == first
    survey_a = next(w.WORKLOADS["survey"].schedule(1)[1])
    survey_b = next(w.WORKLOADS["survey"].schedule(2)[1])
    assert survey_a != survey_b


def test_benchmark_spec_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [wl["name"] for wl in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"setup_s", "tasks_per_s", "task_s_p50", "task_s_p90", "cpu_s_per_task", "peak_rss_mb"}
    groups = set(tracer_mod.TARGETS)
    for m in spec["per_layer"]:
        name = m["name"]
        assert (name in run.DERIVED or name.rsplit(".", 1)[0] in groups
                or name.startswith("cli.") or name == "trace.overhead_ratio"), name


def test_smoke_mode():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": "ok"}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
