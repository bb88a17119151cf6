"""sheafloci benchmark: one workload, every metric by name and unit.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from its
``src/`` directory.  Workloads are survey and cli (see
workloads.py and README.md).

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are measured
with tracing off.  Set-up is measured on several fresh worker processes
and reported as their median: probes before and after the timed run,
so that the median spans the run rather than one moment of it, and the
worker that runs the timed loop, which runs whole cycles until
``--seconds`` have passed.  With
``--trace 1`` every task runs once untraced and once traced, and the
per-layer metrics of BENCHMARK.json are reported, including the tracing
overhead.  ``--smoke`` runs one cycle of every workload plus the
checker's self-test (one corrupted answer must be caught).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when a result
was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("survey", "cli")
SETUP_PROBES_BEFORE = 3
SETUP_PROBES_AFTER = 3
DEADLINE_S = 170.0

def _accept_ratio(m):
    candidates = m.get("schemes.candidates.calls")
    if candidates is None:
        return None
    return m.get("schemes.random_config.calls", 0.0) / candidates if candidates else 0.0


# per-layer metrics that are not a plain "<group>.<counter>" of the tracer
DERIVED = {
    "schemes.candidates": lambda m: m.get("schemes.candidates.calls"),
    "schemes.accept_ratio": _accept_ratio,
    "singloci.subsets": lambda m: m.get("singloci.locus_report.subsets", 0.0),
    "serialize.bytes_out": lambda m: m.get("serialize.dumps.bytes_out", 0.0),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "load_before": list(os.getloadavg()),
    }


def _read_line(proc, deadline: float) -> bytes:
    """One stdout line of the worker, or BenchError once the deadline passes."""
    buf = b""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while not buf.endswith(b"\n"):
            left = deadline - perf_counter()
            if left <= 0 or not sel.select(timeout=left):
                raise BenchError("worker did not report ready in time")
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                raise BenchError("worker exited during set-up")
            buf += chunk
    return buf


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def launch(worker_args: list, command: str, deadline: float):
    """Start a worker, time its set-up, then send it `command`.

    Returns (set-up seconds, parsed result or None for a probe).
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *worker_args],
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    try:
        line = _read_line(proc, deadline)
        setup = perf_counter() - t0
        if line.strip() != b"READY":
            raise BenchError(f"unexpected worker output {line[:200]!r}")
        out, _ = proc.communicate(input=f"{command}\n".encode(), timeout=max(1.0, deadline - perf_counter()))
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish before the deadline") from None
    finally:
        _stop(proc)
    if command != "go":
        return setup, None
    return setup, json.loads(out.decode().strip().splitlines()[-1])


def band_quantile(values: list, lo: int, hi: int) -> float:
    """Mean of the lo-th to hi-th percentiles (statistics.quantiles, n=100).

    Task times fall into clusters by task size, and a single order
    statistic jumps between clusters from run to run when the quantile
    sits near a gap; the mean over a band of percentiles moves smoothly.
    """
    return statistics.fmean(statistics.quantiles(values, n=100)[lo - 1:hi])


def end_to_end(setups: list, res: dict) -> dict:
    times = res["task_times"]
    correct = len(times) - len(res["failures"])
    return {
        "setup_s": statistics.median(setups),
        "tasks_per_s": correct / res["wall_s"],
        "task_s_p50": band_quantile(times, 40, 60),
        "task_s_p90": band_quantile(times, 85, 95),
        "cpu_s_per_task": res["cpu_s"] / len(times),
        "peak_rss_mb": res["maxrss_kb"] / 1024,
    }


def per_layer(names: list, res: dict) -> tuple:
    """(metric values, names reported absent)."""
    layers = dict(res["layers"])
    layers["trace.overhead_ratio"] = sum(res["plain_times"]) / sum(res["traced_times"])
    absent_groups = set(res["absent"])
    values, absent = {}, []
    for name in names:
        if name in DERIVED:
            value = DERIVED[name](layers)
        else:
            value = layers.get(name)
            if value is None and name.rsplit(".", 1)[0] not in absent_groups:
                value = 0.0
        if value is None:
            absent.append(name)
        else:
            values[name] = value
    return values, absent


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    bench = spec()
    env = environment()
    deadline = perf_counter() + DEADLINE_S
    worker_args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(int(trace))]
    def probes(count: int) -> list:
        return [launch(worker_args, "exit", deadline)[0] for _ in range(0 if trace else count)]

    setups = probes(SETUP_PROBES_BEFORE)
    setup, res = launch(worker_args, "go", deadline)
    setups += [setup, *probes(SETUP_PROBES_AFTER)]
    env["load_after"] = list(os.getloadavg())

    failures = res["failures"]
    if trace:
        attempted = len(res["plain_times"]) + len(res["traced_times"])
        listed = bench["per_layer"]
        values, absent = per_layer([m["name"] for m in listed], res)
    else:
        attempted = len(res["task_times"])
        listed = bench["end_to_end"]
        values, absent = end_to_end(setups, res), []

    mode = "on" if trace else "off"
    print(f"sheafloci benchmark: workload {workload}, seed {seed}, tracing {mode}")
    print("env " + json.dumps(env, sort_keys=True))
    for f in failures[:10]:
        print(f"FAILED {f}")
    print(f"attempted {attempted}, failed {len(failures)}, failed_ratio {len(failures) / attempted:.4f}")
    if not trace:
        n = len(res["task_times"])
        print(f"task samples {n} (p50: mean of percentiles 40-60, p90: of 85-95), setup launches {len(setups)}")
    else:
        print(f"spans {res['spans']} written to {res['span_file']}")
    for m in listed:
        if m["name"] in values:
            print(f"  {m['name']:40s} {values[m['name']]:14.6g} {m['unit']}")
    for name in absent:
        print(f"  {name:40s} {'absent':>14s}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed if m["name"] in values}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def smoke() -> int:
    """One cycle per workload, plus the checker's corruption self-test."""
    names = [m["name"] for m in spec()["end_to_end"]]
    ok = True
    for workload in WORKLOAD_NAMES:
        args = ["--workload", workload, "--seed", "1", "--seconds", "0", "--smoke"]
        setup, res = launch(args, "go", perf_counter() + DEADLINE_S)
        metrics = end_to_end([setup], res)
        failed_ratio = len(res["failures"]) / len(res["task_times"])
        selftest_ratio = res["selftest_failed"] / res["selftest_attempted"]
        missing = [n for n in names if n not in metrics]
        good = not missing and failed_ratio == 0 and selftest_ratio > 0
        ok &= good
        print(f"{workload:8s} tasks {len(res['task_times']):3d} failed_ratio {failed_ratio:.3f} "
              f"corrupted failed_ratio {selftest_ratio:.3f} missing {missing} "
              f"{'ok' if good else 'FAIL'}")
        for f in res["failures"][:5]:
            print(f"  FAILED {f}")
    print(json.dumps({"smoke": "ok" if ok else "fail"}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "sheafloci" / "__init__.py").is_file():
        print(f"error: no sheafloci sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        return measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
