"""The two benchmark workloads: task cycles, execution and output checks.

Every workload is a closed loop with one client: the next task starts
only after the previous answer has been checked.  A cycle holds a fixed
count of each task kind, so every run measures the same mix.  Kinds are
spread evenly through a cycle (smooth weighted round robin), and a run
is a fixed number of whole cycles: as many as last at least the run's
seconds at the cycle time measured at the commit that defined the
benchmark (``cycle_s``).  So every run of a seed does the same work,
whatever the machine's speed at the time, and a faster program gives a
shorter run rather than a larger one.

The workload seed picks the rotation of the cycle and, for each kind,
the order in which the entries of a fixed pool of configuration or germ
seeds run: a seeded permutation of the pool, so no entry repeats within
a run until the pool is used up.  The pools are finite so that every
answer can be checked against ``reference.json``, recorded from the
package by ``record_reference.py``.

The checks compare only unique outputs with the reference
(codimensions, canonical CLI bytes); generator and syzygy bases are
unique only up to basis choice, so the kronecker output is checked by
its shape and verdicts instead.

Package functions are always reached as module attributes at call time
(``schemes.random_config``), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import sheafloci.linsys as linsys  # noqa: E402
import sheafloci.localfree as localfree  # noqa: E402
import sheafloci.rng as rng  # noqa: E402
import sheafloci.schemes as schemes  # noqa: E402
import sheafloci.serialize as serialize  # noqa: E402
import sheafloci.singloci as singloci  # noqa: E402

REFERENCE_PATH = HERE / "reference.json"
CHILD_TIMEOUT_S = 60


class Mismatch(Exception):
    """An answer that differs from what the package must produce."""


@dataclass(frozen=True)
class Task:
    kind: str
    index: int  # position in the kind's pool


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def codim_digest(report: dict) -> str:
    """Digest of the codimension content of a serialized locus report."""
    content = [report["fibre_dim"], report["points"], report["pairs"], report["triples"]]
    return digest(json.dumps(content, sort_keys=True).encode())


def interleave(mix: dict) -> list:
    """Kinds of one cycle, spread evenly (smooth weighted round robin)."""
    total = sum(mix.values())
    credit = dict.fromkeys(mix, 0)
    seq = []
    for _ in range(total):
        for kind, count in mix.items():
            credit[kind] += count
        pick = max(mix, key=lambda k: credit[k])
        credit[pick] -= total
        seq.append(pick)
    return seq


# ---------------------------------------------------------------------------
# Pools.  A pool is a list of seeds; entry i of pool "g7" is the generic
# degree-7 configuration random_config(7, seed=POOLS["g7"][i]).

POOL_BASE = {
    "g6": (60000, 48),
    "g7": (70000, 48),
    "g8": (80000, 24),
    "dp6": (160000, 24),
    "dp7": (170000, 24),
    "dp8": (180000, 16),
    "m2": (520000, 24),
    "random6": (30000, 48),
}
POOLS = {name: [base + i for i in range(size)] for name, (base, size) in POOL_BASE.items()}

# configurations the cli workload writes to files at set-up
CLI_CONFIGS = 16


class Workload:
    """Base class: a named mix of kinds, each kind drawing from one pool."""

    name = ""
    mix: dict = {}
    pool_of: dict = {}
    warmup_kind = ""
    cycle_s = 1.0  # seconds one cycle took when the benchmark was defined

    def cycles_for(self, seconds: float) -> int:
        """Whole cycles in a run of about `seconds` at the defining commit's speed."""
        return max(1, math.ceil(seconds / self.cycle_s))

    def prepare(self, workdir: Path) -> None:
        """Input generation that runs once per process, before the warm-up."""

    def pool_size(self, kind: str) -> int:
        return len(POOLS[self.pool_of[kind]])

    def schedule(self, seed: int):
        """(warm-up task, generator of cycles) for a workload seed."""
        rnd = random.Random(f"{self.name}:{seed}")
        order = interleave(self.mix)
        shift = rnd.randrange(len(order))
        order = order[shift:] + order[:shift]
        perms = {kind: rnd.sample(range(self.pool_size(kind)), self.pool_size(kind)) for kind in self.mix}
        # the same warm-up whatever the seed keeps set-up time independent of it
        warmup = Task(self.warmup_kind, 0)

        def cycles():
            used = dict.fromkeys(self.mix, 0)
            while True:
                cycle = []
                for kind in order:
                    perm = perms[kind]
                    cycle.append(Task(kind, perm[used[kind] % len(perm)]))
                    used[kind] += 1
                yield cycle

        return warmup, cycles()

    def execute(self, task: Task, traced_child: Path = None):
        """The task's answer.  traced_child, for cli only, is the file a
        traced child process writes its per-layer totals to."""
        raise NotImplementedError

    def check(self, task: Task, answer, reference: dict) -> None:
        raise NotImplementedError

    def corrupt(self, answer):
        """A wrong copy of an answer, for the checker's self-test."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# survey: the paper's codimension sweep


SURVEY_KINDS = {
    "g6": (6, "generic", True),
    "g7": (7, "generic", True),
    "g8": (8, "generic", True),
    "dp6": (6, "double", False),
    "dp7": (7, "double", False),
    "dp8": (8, "double", False),
}


def survey_answer(degree: int, seed: int, stratum: str, triples: bool) -> dict:
    cfg = schemes.random_config(degree, seed=seed, stratum=stratum)
    fib = linsys.fibre(cfg)
    rep = singloci.locus_report(fib, pairs=True, triples=triples)
    violations = singloci.asserted_violations(rep)
    text = serialize.canonical_dumps(serialize.report_to_dict(rep))
    return {"fibre_dim": fib.proj_dim, "violations": violations, "text": text}


class Survey(Workload):
    name = "survey"
    mix = {"g6": 6, "g7": 6, "g8": 3, "dp6": 2, "dp7": 2, "dp8": 1}
    pool_of = {k: k for k in mix}
    warmup_kind = "g6"
    cycle_s = 18.0

    def execute(self, task, traced_child=None):
        degree, stratum, triples = SURVEY_KINDS[task.kind]
        return survey_answer(degree, POOLS[task.kind][task.index], stratum, triples)

    def check(self, task, answer, reference):
        degree = SURVEY_KINDS[task.kind][0]
        if answer["fibre_dim"] != 3 * degree - 1:
            raise Mismatch(f"fibre dimension {answer['fibre_dim']}, expected {3 * degree - 1}")
        if answer["violations"]:
            raise Mismatch(f"violations: {answer['violations'][:3]}")
        seed = POOLS[task.kind][task.index]
        want = reference["survey"][f"{task.kind}:{seed}"]
        got = codim_digest(json.loads(answer["text"]))
        if got != want:
            raise Mismatch(f"codimension digest {got}, reference {want}")

    def corrupt(self, answer):
        return dict(answer, text=answer["text"].replace('"codim": 2', '"codim": 3', 1))


# ---------------------------------------------------------------------------
# cli: one sheafloci child process at a time


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(argv: list, cwd: Path, trace_out: Path = None):
    """Run the CLI once; returns (exit code, stdout bytes, stderr bytes).

    With trace_out the child runs under the tracer (cli_child.py) and
    writes its per-layer totals there.
    """
    env = child_env()
    if trace_out is None:
        cmd = [sys.executable, "-m", "sheafloci.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), *argv]
        env["PERFBENCH_TRACE_OUT"] = str(trace_out)
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def germ_query(index: int) -> dict:
    """localfree query for entry `index` of the mult-2 germ pool."""
    germ, data = localfree.random_membership_germ(rng.SplitMix64(POOLS["m2"][index]), 2)
    h = [str(c) for c in data.h] or ["0"]
    return {"f": str(germ.f), "h": h, "mult": data.mult}


def cli_argv(task: Task, workdir: Path) -> list:
    i = task.index
    if task.kind == "verify_remark6":
        return ["verify-remark6"]
    if task.kind == "random":
        return ["random", "--degree", "6", "--seed", str(POOLS["random6"][i])]
    config = str(workdir / f"config-{i}.json")
    if task.kind == "analyze":
        subset = f"{1 + i % 10},{1 + (i + 3) % 10},{1 + (i + 6) % 10}"
        return ["analyze", "--config", config, f"--subset={subset}"]
    if task.kind == "kronecker":
        return ["kronecker", "--config", config]
    if task.kind == "bad_degree":
        return ["analyze", "--config", config, "--degree", "7"]
    if task.kind == "localfree_poly":
        q = germ_query(i)
        return ["localfree", f"--poly={q['f']}", f"--h={','.join(q['h'])}", f"--mult={q['mult']}"]
    if task.kind == "localfree_in":
        return ["localfree", "--in", str(workdir / f"query-{i}.json")]
    raise ValueError(task.kind)


def cli_reference_key(task: Task) -> str:
    """Key of the task's digest in reference["cli"]; both localfree routes share one."""
    if task.kind == "verify_remark6":
        return "verify_remark6"
    if task.kind == "random":
        return f"random:{POOLS['random6'][task.index]}"
    if task.kind == "analyze":
        return f"analyze:{POOLS['g6'][task.index]}:{task.index}"
    if task.kind.startswith("localfree"):
        return f"localfree:{POOLS['m2'][task.index]}"
    return ""


class Cli(Workload):
    name = "cli"
    mix = {
        "verify_remark6": 1,
        "random": 1,
        "analyze": 1,
        "kronecker": 1,
        "localfree_poly": 1,
        "localfree_in": 1,
        "bad_degree": 1,
    }
    pool_of = {
        "verify_remark6": "random6",
        "random": "random6",
        "analyze": "g6",
        "kronecker": "g6",
        "bad_degree": "g6",
        "localfree_poly": "m2",
        "localfree_in": "m2",
    }
    warmup_kind = "random"
    cycle_s = 2.2
    workdir: Path = None

    def pool_size(self, kind):
        if self.pool_of[kind] == "g6":
            return CLI_CONFIGS
        return super().pool_size(kind)

    def prepare(self, workdir):
        self.workdir = workdir
        for i in range(CLI_CONFIGS):
            cfg = schemes.random_config(6, seed=POOLS["g6"][i])
            text = serialize.canonical_dumps(serialize.config_to_dict(cfg))
            (workdir / f"config-{i}.json").write_text(text, encoding="utf-8")
        for i in range(len(POOLS["m2"])):
            text = json.dumps(germ_query(i))
            (workdir / f"query-{i}.json").write_text(text, encoding="utf-8")

    def execute(self, task, traced_child=None):
        code, out, err = run_child(cli_argv(task, self.workdir), self.workdir, traced_child)
        return {"code": code, "stdout": out, "stderr": err}

    def check(self, task, answer, reference):
        code, out, err = answer["code"], answer["stdout"], answer["stderr"]
        if b"Traceback" in err:
            raise Mismatch(f"traceback from {task.kind}: {err.decode(errors='replace')[-300:]}")
        if task.kind == "bad_degree":
            if code != 1 or out or not err.strip():
                raise Mismatch(f"bad input gave exit {code}, stdout {len(out)} bytes")
            return
        if code != 0:
            raise Mismatch(f"{task.kind} exited {code}: {err.decode(errors='replace')[-300:]}")
        if task.kind == "kronecker":
            try:
                payload = json.loads(out)
            except ValueError as e:
                raise Mismatch(f"kronecker output is not JSON: {e}") from None
            n = 5
            shape_ok = (
                payload.get("degree") == 6
                and len(payload.get("phi", [])) == n
                and all(len(row) == n - 1 for row in payload["phi"])
                and len(payload.get("generators", [])) == n
                and len(payload.get("minors", [])) == n
            )
            if not shape_ok or payload.get("injective") is not True or payload.get("stable") is not True:
                raise Mismatch("kronecker payload has the wrong shape or verdicts")
            return
        want = reference["cli"][cli_reference_key(task)]
        if digest(out) != want:
            raise Mismatch(f"{task.kind} output digest {digest(out)}, reference {want}")

    def corrupt(self, answer):
        return dict(answer, stdout=answer["stdout"] + b"x")


WORKLOADS = {w.name: w for w in (Survey(), Cli())}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
