"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces every public function of the layer modules
(``graph``, ``partition``, ``quotient``, ``coloring``, ``minors``,
``lifting``) and ``cli.run`` with a timing wrapper, in every ``oddminors``
namespace that binds it: ``cli`` and ``lifting`` import functions by name,
so patching only the defining module would miss their calls.  Nothing in
``src`` changes.  ``uninstall`` puts the originals back.

A span is ``(id, parent id, request id, name, start, end)``; spans stay in
memory until ``write``.  A span's self time is its duration minus the
durations of its direct children, so the self times of one request sum to
its ``cli.run`` span.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from oddminors.errors import BudgetExceeded

LAYERS = ("graph", "partition", "quotient", "coloring", "minors", "lifting")

# Spans are named after the defining module; this one belongs to the quotient
# stage (it finds the witness triple of a quotient edge).
LAYER_OF = {"partition.find_witness_triple": "quotient"}

# Per-layer time metrics: summed self time of these spans.
TIME_METRICS = {
    "graph.parse_s": ("graph.parse_graph", "graph.detect_format", "graph.parse_edge_list", "graph.parse_dimacs"),
    "graph.gnp_s": ("graph.gnp", "graph.generate"),
    "partition.compute_s": ("partition.compute_partition",),
    "partition.verify_s": ("partition.verify_partition",),
    "quotient.build_s": ("quotient.build_quotient",),
    "quotient.witness_s": ("partition.find_witness_triple",),
    "coloring.exact_s": ("coloring.color_exact",),
    "coloring.heuristic_s": ("coloring.color_heuristic",),
    "coloring.compose_s": ("coloring.compose_coloring",),
    "coloring.verify_s": ("coloring.verify_coloring",),
    "minors.find_s": ("minors.find_expansion",),
    "minors.find_odd_s": ("minors.find_odd_expansion",),
    "minors.verify_s": ("minors.verify_expansion", "minors.verify_odd_expansion"),
    "minors.tree_bfs_s": ("minors.bfs_tree_edges",),
    "lifting.lift_s": ("lifting.lift_expansion", "lifting.lift_tree"),
    "lifting.report_s": ("lifting.reduction_report",),
    "cli.self_s": ("cli.run",),
}


def _graph_size(counts: Counter, g) -> None:
    counts["graph.vertices"] += g.n
    counts["graph.edges"] += g.m


def _parts(counts: Counter, p) -> None:
    counts["partition.compute_calls"] += 1
    counts["partition.parts"] += len(p)


def _quotient(counts: Counter, q) -> None:
    counts["quotient.h_vertices"] += q.h.n
    counts["quotient.h_edges"] += q.h.m


def _search(counts: Counter, cert) -> None:
    counts["minors.search_calls"] += 1
    counts["minors.found"] += cert is not None


def _tally(key: str):
    def hook(counts: Counter, _result) -> None:
        counts[key] += 1
    return hook


# Work counters, keyed by span name, updated from each call's result.
COUNT_HOOKS = {
    "graph.parse_graph": _graph_size,
    "partition.compute_partition": _parts,
    "partition.verify_partition": _tally("partition.verify_calls"),
    "partition.find_witness_triple": _tally("quotient.witness_calls"),
    "quotient.build_quotient": _quotient,
    "coloring.color_exact": _tally("coloring.exact_calls"),
    "minors.find_expansion": _search,
    "minors.find_odd_expansion": _search,
    "lifting.lift_tree": _tally("lifting.lifted_trees"),
}

BUDGET_COUNTERS = {
    "coloring.color_exact": ("coloring.budget_exceeded", "coloring.exact_calls"),
    "minors.find_expansion": ("minors.budget_exceeded", "minors.search_calls"),
    "minors.find_odd_expansion": ("minors.budget_exceeded", "minors.search_calls"),
}


def _targets() -> dict:
    """Function object -> span name, for every public layer function and cli.run."""
    out = {}
    for layer in LAYERS:
        module = sys.modules[f"oddminors.{layer}"]
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                out[obj] = f"{layer}.{name}"
    out[sys.modules["oddminors.cli"].run] = "cli.run"
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.rid = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers = {fn: self._wrap(name, fn) for fn, name in _targets().items()}

    def _wrap(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        hook = COUNT_HOOKS.get(name)
        budget_keys = BUDGET_COUNTERS.get(name, ())
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BudgetExceeded:
                for key in budget_keys:
                    counts[key] += 1
                raise
            finally:
                spans[sid] = (sid, parent, tracer.rid, name, t0, clock())
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "oddminors" or key.startswith("oddminors.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, self._wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in self._saved:
            setattr(module, attr, value)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = defaultdict(float)
        for _, parent, _, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, _, _, name, t0, t1 in self.spans:
            out[name] += (t1 - t0) - child[sid]
        return dict(out)

    def layer_self_times(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS + ("cli",)}
        for name, secs in self.self_times().items():
            out[LAYER_OF.get(name, name.split(".")[0])] += secs
        return out

    def metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        out = {key: sum(selfs.get(n, 0.0) for n in names) for key, names in TIME_METRICS.items()}
        for key in ("graph.vertices", "graph.edges", "partition.compute_calls", "partition.parts",
                    "partition.verify_calls", "quotient.witness_calls", "quotient.h_vertices",
                    "quotient.h_edges", "coloring.exact_calls", "coloring.budget_exceeded",
                    "minors.search_calls", "minors.budget_exceeded", "lifting.lifted_trees"):
            out[key] = self.counts[key]
        searches = self.counts["minors.search_calls"]
        out["minors.found_ratio"] = self.counts["minors.found"] / searches if searches else 0.0
        return out

    def write(self, path: Path) -> None:
        base = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\trequest\tname\tstart_s\tend_s\n")
            for sid, parent, rid, name, t0, t1 in self.spans:
                fh.write(f"{sid}\t{parent}\t{rid}\t{name}\t{t0 - base:.9f}\t{t1 - base:.9f}\n")
