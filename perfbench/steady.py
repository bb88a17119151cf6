"""Steadiness check: two sets of runs, quartiles per metric, derived bounds.

Usage: python3 perfbench/steady.py [--runs 10] [--workloads survey,jet]
                                   [--seconds S]

Runs run.py --trace 0 `runs` times per workload with seeds 1..runs
(set A), then again with seeds runs+1..2*runs (set B).  For each
end-to-end metric it prints each set's median, quartiles
(statistics.quantiles, n=4) and spread (interquartile distance over
median), and the shift of B's median against A's.  A metric is steady
when both spreads and the absolute shift are within its bound; setup_s
is held to the same test.  It then derives a bound per metric: at least
three times the largest spread and 1.5 times the largest absolute
shift, between 0.05 and 0.25.  Each run's record, with the environment
(Python, nproc, CPU model, load average before and after), goes to
perfbench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_BOUND = 0.25
SETS = "AB"


def one_run(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    record = {"workload": workload, "seed": seed, "exit": proc.returncode,
              "run_s": time.perf_counter() - t0, "env": env}
    if proc.returncode == 0:
        record["result"] = json.loads(lines[-1])
    else:
        record["stderr"] = proc.stderr[-2000:]
    return record


def spread(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else math.inf


def shift(a: float, b: float) -> float:
    """Distance of b from a, as a share of a."""
    return abs(b - a) / a


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    records = []
    for s, set_name in enumerate(SETS):
        for wl in workloads:
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                rec = one_run(wl, seed, args.seconds)
                rec["set"] = set_name
                records.append(rec)
                res = rec.get("result")
                status = f"failed {res['failed']}/{res['attempted']}" if res else f"EXIT {rec['exit']}"
                print(f"set {rec['set']} {wl:8s} seed {seed:4d} {rec['run_s']:6.1f} s  {status}  "
                      f"load {rec['env'].get('load_before', ['?'])[0]}", flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(records, indent=1))

    ok = all(r.get("result", {}).get("correct") for r in records)
    derived = {}
    print(f"\n{'workload':8s} {'metric':15s} {'set':3s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'shift':>7s} {'bound':>6s}  verdict")
    for wl in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in SETS:
                vals = [r["result"]["metrics"][name]["value"] for r in records
                        if r["workload"] == wl and r["set"] == s and "result" in r]
                if len(vals) < 2:
                    ok = False
                    continue
                med, q1, q3, sp = spread(vals)
                medians.append(med)
                sh = shift(medians[0], med)
                verdict = "ok" if sp <= bound and sh <= bound else "FAIL"
                if verdict == "ok" and sp >= bound / 3:
                    verdict = "ok (spread above bound/3)"
                ok &= verdict != "FAIL"
                print(f"{wl:8s} {name:15s} {s:3s} {med:10.5g} {q1:10.5g} {q3:10.5g} "
                      f"{sp:7.3f} {sh:7.3f} {bound:6.2f}  {verdict}")
                derived[name] = max(derived.get(name, 0.05), 3 * sp, 1.5 * sh)
    print("\nderived bounds (BENCHMARK.json end_to_end):")
    for m in spec["end_to_end"]:
        name = m["name"]
        value = min(MAX_BOUND, math.ceil(derived.get(name, 0.05) * 100) / 100)
        print(f"  {name:15s} derived {value:.2f}  stored {m['bound']:.2f}")
    print(f"\nrecords written to {path.relative_to(ROOT)}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
