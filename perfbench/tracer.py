"""Outside-in tracer: wraps the package's public functions from outside.

Nothing under ``src/`` changes.  ``Tracer.install()`` replaces each
target function with a timing wrapper in the module that defines it and
in every ``sheafloci.*`` module (or class) that holds the same object
under any name, so ``from .exactalg import rank_of_rows`` bindings and
aliases such as ``det as qdet`` or ``__rmul__ = __mul__`` are caught too.
``uninstall()`` puts every original back.

Each wrapped call records one span (group, start, end, parent span,
task id) in compact in-memory arrays; ``write_spans`` dumps them at the
end.  A span's self time is its duration minus the gross time of its
child spans, where the gross time includes the wrapper's own
bookkeeping, so tracing cost is not billed to the parent layer.

A target whose module or attribute no longer exists is skipped and its
group listed in ``absent``; its metrics are then reported as absent.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter

# group -> (module, attribute path) pairs; attribute paths may name a
# method as "Class.method".
TARGETS = {
    "exactalg.rank": [("exactalg", "rank"), ("exactalg", "rank_of_rows")],
    "exactalg.rref": [
        ("exactalg", "rref"),
        ("exactalg", "kernel"),
        ("exactalg", "solve"),
        ("exactalg", "inverse"),
    ],
    "exactalg.det": [("exactalg", "det")],
    "poly.det_poly_matrix": [("poly", "det_poly_matrix")],
    "poly.hompoly_mul": [("poly", "HomPoly.__mul__")],
    "poly.localpoly_mul": [("poly", "LocalPoly.__mul__")],
    "localfree.oracle": [("localfree", "jet_principality_oracle")],
    "localfree.criterion": [("localfree", "fat_ideal_free")],
    "schemes.random_config": [("schemes", "random_config")],
    "schemes.candidates": [("schemes", "not_on_curve_of_degree")],
    "schemes.membership": [("schemes", "membership_conditions")],
    "linsys.fibre": [("linsys", "fibre")],
    "linsys.compress": [("linsys", "ProjSubspace.compress_functional")],
    "singloci.locus_report": [("singloci", "locus_report")],
    "singloci.singular_conditions": [("singloci", "singular_conditions")],
    "kronecker.resolve": [("kronecker", "kronecker_from_points")],
    "kronecker.maximal_minors": [("kronecker", "maximal_minors")],
    "kronecker.checks": [
        ("kronecker", "resolution_check"),
        ("kronecker", "injectivity_check"),
        ("kronecker", "stability_sufficient"),
    ],
    "serialize.to_dict": [
        ("serialize", "config_to_dict"),
        ("serialize", "report_to_dict"),
        ("serialize", "resolution_to_dict"),
        ("serialize", "localfree_result_to_dict"),
        ("serialize", "genericity_error_to_dict"),
    ],
    "serialize.validate": [("serialize", "validate_payload")],
    "serialize.dumps": [("serialize", "canonical_dumps")],
}

PACKAGE = "sheafloci"


def _bits(x) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def _matrix_stats(m):
    """(cells, max entry bits) of a QMatrix or a list of row vectors."""
    entries = getattr(m, "entries", None)
    if entries is not None:
        cells = m.rows * m.cols
    else:
        rows = list(m)
        cells = len(rows) * (len(rows[0]) if rows else 0)
        entries = [x for r in rows for x in r]
    return cells, max((_bits(x) for x in entries), default=0)


def _rank_extra(agg, args, kwargs, result):
    cells, bits = _matrix_stats(args[0] if args else next(iter(kwargs.values())))
    agg["cells"] = agg.get("cells", 0) + cells
    agg["input_bits_max"] = max(agg.get("input_bits_max", 0), bits)


def _cells_extra(agg, args, kwargs, result):
    m = args[0] if args else next(iter(kwargs.values()))
    agg["cells"] = agg.get("cells", 0) + m.rows * m.cols


def _subsets_extra(agg, args, kwargs, result):
    n = len(result.pair_codims) + len(result.triple_codims) + len(result.subset_codims)
    agg["subsets"] = agg.get("subsets", 0) + n


def _bytes_extra(agg, args, kwargs, result):
    agg["bytes_out"] = agg.get("bytes_out", 0) + len(result.encode("utf-8"))


# per-group counters computed from the call's arguments or result, after
# the span has closed
EXTRAS = {
    "exactalg.rank": _rank_extra,
    "exactalg.rref": _cells_extra,
    "singloci.locus_report": _subsets_extra,
    "serialize.dumps": _bytes_extra,
}


class Tracer:
    """Span recorder for one process; install around the traced tasks only."""

    def __init__(self):
        self.groups = list(TARGETS)
        self.gid = {g: i for i, g in enumerate(self.groups)}
        self.agg = {g: {"calls": 0, "self_s": 0.0} for g in self.groups}
        self.absent = set()
        self.task = -1
        # span storage: group id, start, end, parent span index, task id
        self.s_group = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("i")
        self.s_task = array("i")
        self._stack = []  # open frames: [span index, gross child time]
        self._saved = []  # (owner, attribute name, original object)

    def _wrap(self, group, fn):
        tracer = self
        gid = self.gid[group]
        agg = self.agg[group]
        extra = EXTRAS.get(group)
        stack = self._stack

        def traced(*args, **kwargs):
            t_in = perf_counter()
            index = len(tracer.s_start)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            tracer.s_group.append(gid)
            tracer.s_parent.append(parent)
            tracer.s_task.append(tracer.task)
            tracer.s_start.append(0.0)
            tracer.s_end.append(0.0)
            returned = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.s_start[index] = t0
                tracer.s_end[index] = t1
                agg["calls"] += 1
                agg["self_s"] += (t1 - t0) - frame[1]
                if returned and extra is not None:
                    extra(agg, args, kwargs, result)
                if stack:
                    stack[-1][1] += perf_counter() - t_in
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", group)
        traced.__qualname__ = getattr(fn, "__qualname__", group)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _resolve(self, module_name, path):
        try:
            obj = importlib.import_module(f"{PACKAGE}.{module_name}")
            for part in path.split("."):
                obj = obj.__dict__[part] if isinstance(obj, type) else getattr(obj, part)
        except (ImportError, AttributeError, KeyError):
            return None
        return obj if callable(obj) else None

    def install(self) -> None:
        """Swap every target for its wrapper, wherever the package binds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for group, targets in TARGETS.items():
            found = False
            for module_name, path in targets:
                fn = self._resolve(module_name, path)
                if fn is not None:
                    wrappers[id(fn)] = (fn, self._wrap(group, fn))
                    found = True
            if not found:
                self.absent.add(group)
        owners = []
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            owners.append(module)
            owners.extend(
                v for v in vars(module).values()
                if isinstance(v, type) and v.__module__ == module.__name__
            )
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((owner, attr, value))
                    setattr(owner, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @property
    def span_count(self) -> int:
        return len(self.s_start)

    def write_spans(self, path) -> None:
        """Write all spans as gzip JSON lines: a header, then one list per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"groups": self.groups, "fields": [
                "group", "start", "end", "parent", "task"]}) + "\n")
            for i in range(len(self.s_start)):
                fh.write(
                    f"[{self.s_group[i]},{self.s_start[i]:.9f},{self.s_end[i]:.9f},"
                    f"{self.s_parent[i]},{self.s_task[i]}]\n"
                )
