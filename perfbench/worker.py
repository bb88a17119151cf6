"""One workload process: set up, report ready, then run the timed loop.

Started by run.py.  After imports, input generation and one untimed
warm-up task the worker prints ``READY`` and waits for one stdin line:
``exit`` ends a set-up probe, ``go`` starts the measurement.  The result
is one JSON line on stdout.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       [--trace 0|1] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import sheafloci  # noqa: E402

if Path(sheafloci.__file__).resolve().parent != (ROOT / "src" / "sheafloci").resolve():
    raise SystemExit(f"sheafloci imported from {sheafloci.__file__}, not from {ROOT / 'src'}")

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Mismatch, child_env, load_reference  # noqa: E402

CLI_SUBCOMMAND_METRICS = {
    "verify_remark6": "cli.verify_remark6_s",
    "random": "cli.random_s",
    "analyze": "cli.analyze_s",
    "kronecker": "cli.kronecker_s",
    "localfree_poly": "cli.localfree_s",
    "localfree_in": "cli.localfree_s",
}


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_task(wl, task, reference, tracer=None, corrupt=False, trace_file=None):
    """(seconds, failure message or None) for one task, answer checked."""
    t0 = perf_counter()
    try:
        if tracer is None:
            answer = wl.execute(task)
            dt = perf_counter() - t0
        elif trace_file is not None:
            answer = wl.execute(task, traced_child=trace_file)
            dt = perf_counter() - t0
        else:
            with tracer:
                t0 = perf_counter()
                answer = wl.execute(task)
                dt = perf_counter() - t0
    except Exception as e:  # a task that raises counts as failed, the run goes on
        return perf_counter() - t0, f"{task.kind}#{task.index} raised {type(e).__name__}: {e}"
    if corrupt:
        answer = wl.corrupt(answer)
    try:
        wl.check(task, answer, reference)
    except Mismatch as e:
        return dt, f"{task.kind}#{task.index}: {e}"
    return dt, None


def merge_child_trace(tracer, path: Path) -> int:
    """Add a traced child's per-layer totals; returns its span count."""
    data = json.loads(path.read_text(encoding="utf-8"))
    path.unlink()
    for group, agg in data["agg"].items():
        mine = tracer.agg.setdefault(group, {"calls": 0, "self_s": 0.0})
        for key, value in agg.items():
            if key == "input_bits_max":
                mine[key] = max(mine.get(key, 0), value)
            else:
                mine[key] = mine.get(key, 0) + value
    tracer.absent.update(data["absent"])
    return data["spans"]


def timed_loop(wl, tasks, reference, *, corrupt_first=False):
    """Untraced closed loop over `tasks`."""
    times, failures, kinds = [], [], []
    cpu0 = cpu_seconds()
    start = perf_counter()
    for task in tasks:
        dt, failure = run_task(wl, task, reference, corrupt=corrupt_first and not times)
        times.append(dt)
        kinds.append(task.kind)
        if failure:
            failures.append(failure)
    wall = perf_counter() - start
    return {
        "task_times": times,
        "kinds": kinds,
        "failures": failures,
        "wall_s": wall,
        "cpu_s": cpu_seconds() - cpu0,
    }


def traced_loop(wl, tasks, reference, workdir):
    """Each task runs untraced and traced, in alternating order."""
    tracer = Tracer()
    plain, traced, failures, kinds = [], [], [], []
    child_spans = 0
    for n, task in enumerate(tasks):
        trace_file = workdir / f"trace-{n}.json" if wl.name == "cli" else None
        tracer.task = n
        order = (False, True) if n % 2 == 0 else (True, False)
        for with_trace in order:
            dt, failure = run_task(
                wl, task, reference, tracer=tracer if with_trace else None,
                trace_file=trace_file if with_trace else None,
            )
            (traced if with_trace else plain).append(dt)
            if failure:
                failures.append(failure)
        if trace_file is not None and trace_file.exists():
            child_spans += merge_child_trace(tracer, trace_file)
        kinds.append(task.kind)
    OUT.mkdir(exist_ok=True)
    span_path = OUT / f"spans-{wl.name}-{os.getpid()}.jsonl.gz"
    tracer.write_spans(span_path)
    return tracer, {
        "plain_times": plain,
        "traced_times": traced,
        "kinds": kinds,
        "failures": failures,
        "spans": tracer.span_count + child_spans,
        "span_file": str(span_path.relative_to(ROOT)),
    }


def layer_metrics(tracer, tasks: int) -> dict:
    """Per-task per-layer numbers from the tracer's totals."""
    out = {}
    for group, agg in tracer.agg.items():
        if group in tracer.absent:
            continue
        out[f"{group}.calls"] = agg["calls"] / tasks
        out[f"{group}.self_s"] = agg["self_s"] / tasks
        for key in ("cells", "subsets", "bytes_out"):
            if key in agg:
                out[f"{group}.{key}"] = agg[key] / tasks
        if "input_bits_max" in agg:
            out[f"{group}.input_bits_max"] = agg["input_bits_max"]
    return out


def importtime(module: str) -> dict:
    """Cumulative import seconds of each top-level import, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    out = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        out.setdefault((depth, name.strip()), int(cumulative) / 1e6)
    return out


def cli_layer_metrics() -> dict:
    """Interpreter start and CLI import cost, medians of a few launches."""
    interp = []
    for _ in range(5):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True, timeout=60)
        interp.append(perf_counter() - t0)
    imports, schema = [], []
    for _ in range(3):
        table = importtime("sheafloci.cli")
        imports.append(sum(s for (depth, name), s in table.items() if depth == 0 and name.startswith("sheafloci")))
        schema.append(min((s for (depth, name), s in table.items() if name == "jsonschema"), default=0.0))
    return {
        "cli.interpreter_s": statistics.median(interp),
        "cli.import_s": statistics.median(imports),
        "cli.jsonschema_import_s": statistics.median(schema),
    }


def subcommand_medians(kinds: list, times: list) -> dict:
    """Median untraced time per CLI subcommand; 0 where none ran."""
    by_name = {}
    for kind, dt in zip(kinds, times):
        if kind in CLI_SUBCOMMAND_METRICS:
            by_name.setdefault(CLI_SUBCOMMAND_METRICS[kind], []).append(dt)
    return {name: statistics.median(by_name.get(name, [0.0])) for name in CLI_SUBCOMMAND_METRICS.values()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    wl = WORKLOADS[args.workload]
    reference = load_reference()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl.prepare(workdir)
        warmup, cycles = wl.schedule(args.seed)
        _, failure = run_task(wl, warmup, reference)
        if failure:
            print(f"warm-up task failed: {failure}", file=sys.stderr)
            return 1
        print("READY", flush=True)
        command = sys.stdin.readline().strip()
        if command != "go":
            return 0
        if args.smoke:
            result = timed_loop(wl, next(cycles), reference)
            fresh = wl.schedule(args.seed)[1]
            selftest = timed_loop(wl, next(fresh)[:1], reference, corrupt_first=True)
            result["selftest_failed"] = len(selftest["failures"])
            result["selftest_attempted"] = len(selftest["task_times"])
        elif args.trace:
            # every task runs twice, so half the cycles keep the run near --seconds
            tasks = [t for _ in range(max(1, wl.cycles_for(args.seconds) // 2)) for t in next(cycles)]
            tracer, result = traced_loop(wl, tasks, reference, workdir)
            result["layers"] = layer_metrics(tracer, len(result["traced_times"]))
            result["absent"] = sorted(tracer.absent)
            result["layers"].update(cli_layer_metrics())
            result["layers"].update(subcommand_medians(result["kinds"], result["plain_times"]))
        else:
            tasks = [t for _ in range(wl.cycles_for(args.seconds)) for t in next(cycles)]
            result = timed_loop(wl, tasks, reference)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["maxrss_kb"] = kids if wl.name == "cli" else own
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
