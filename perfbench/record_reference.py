"""Record reference.json: the unique answers of every pool entry.

Usage: python3 perfbench/record_reference.py

Runs every pool entry of both workloads once, checks the answers that
need no reference (fibre dimension, violations, exit codes), and stores
the codimension digests and CLI output digests that the benchmark later
compares against.  Takes about four minutes.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as w  # noqa: E402


def record() -> dict:
    ref = {"survey": {}, "cli": {}}
    survey = w.WORKLOADS["survey"]
    for kind in survey.mix:
        degree = w.SURVEY_KINDS[kind][0]
        for i, seed in enumerate(w.POOLS[kind]):
            task = w.Task(kind, i)
            answer = survey.execute(task)
            if answer["fibre_dim"] != 3 * degree - 1 or answer["violations"]:
                raise SystemExit(f"survey {kind}#{i} is not a clean pool entry")
            ref["survey"][f"{kind}:{seed}"] = w.codim_digest(json.loads(answer["text"]))
            survey.check(task, answer, ref)
        print(f"survey {kind}: {len(w.POOLS[kind])} entries checked", flush=True)

    cli = w.WORKLOADS["cli"]
    workdir = HERE / "out" / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        cli.prepare(workdir)
        for kind in cli.mix:
            for i in range(cli.pool_size(kind) if kind != "verify_remark6" else 1):
                task = w.Task(kind, i)
                ans = cli.execute(task)
                key = w.cli_reference_key(task)
                if key:
                    got = w.digest(ans["stdout"])
                    if ref["cli"].setdefault(key, got) != got:
                        raise SystemExit(f"cli {kind}#{i}: output differs from the other route")
                cli.check(task, ans, ref)
            print(f"cli {kind}: checked", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return ref


if __name__ == "__main__":
    reference = record()
    w.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {w.REFERENCE_PATH}")
