"""Outside-in tracing: wrap dynbal's layer boundaries from the benchmark.

`Tracer.install()` replaces functions and methods of the imported `dynbal`
modules with wrappers that record one span per call (name, start, end,
parent) and a few counts; `Tracer.uninstall()` puts the originals back.
Nothing in `src/` knows about it.

The package binds names with `from .x import y`, so a function is wrapped
in every module namespace where a caller looks it up, not only where it is
defined.  Spans stay in memory, in flat arrays, until `write_spans()`.

A span's self time is its duration minus the durations of its direct
children; calls are strictly nested on one thread, so the children never
overlap.
"""

from __future__ import annotations

import functools
import weakref
from array import array
from time import perf_counter_ns

from dynbal import adversaries, engine, graphs, io, loads, metrics, smoothing
from dynbal.adversaries import AdversaryPolicy
from dynbal.algorithms import drivers
from dynbal.algorithms.base import BalancingAlgorithm
from dynbal.dyadic import Dyadic

# Modules whose namespaces are searched for bound copies of the traced
# functions.
CALLER_MODULES = (engine, smoothing, adversaries, metrics)

SPAN_FUNCTIONS = (
    engine.run_trial,
    engine.run_experiment,
    smoothing.k_smooth,
    graphs.is_connected,
    graphs.edge_set_connected,
    graphs.nodes_within,
    metrics.check_round,
    metrics.potential,
    metrics.max_gap,
    metrics.twice_shifted_load,
    loads.total_load,
    drivers.decompose_by_unit,
    drivers.recombine_by_unit,
)

ALGORITHM_METHODS = ("play_round", "consume_idle_rounds")

PER_LAYER_UNITS = {
    "engine.self_s": "s",
    "engine.rounds_played": "count",
    "engine.rounds_simulated": "count",
    "engine.fast_forward_share": "share",
    "engine.consume_idle_rounds.s": "s",
    "adversaries.next_graph.calls": "count",
    "adversaries.next_graph.self_s": "s",
    "adversaries.new_graph_share": "share",
    "graphs.Graph.calls": "count",
    "graphs.Graph.s": "s",
    "graphs.adj_builds": "count",
    "graphs.adj.s": "s",
    "graphs.is_connected.calls": "count",
    "graphs.is_connected.s": "s",
    "graphs.edge_set_connected.calls": "count",
    "graphs.edge_set_connected.s": "s",
    "graphs.nodes_within.calls": "count",
    "graphs.nodes_within.s": "s",
    "smoothing.k_smooth.calls": "count",
    "smoothing.k_smooth.self_s": "s",
    "smoothing.proposals": "count",
    "smoothing.accept_ratio": "share",
    "algorithms.play_round.calls": "count",
    "algorithms.play_round.self_s": "s",
    "algorithms.matching_pairs": "count",
    "metrics.check_round.calls": "count",
    "metrics.check_round.self_s": "s",
    "metrics.potential.calls": "count",
    "metrics.potential.s": "s",
    "metrics.max_gap.s": "s",
    "dyadic.objects": "count",
    "dyadic.max_exp": "bits",
    "dyadic.decimal_str.s": "s",
    "loads.total_load.calls": "count",
    "loads.total_load.s": "s",
    "io.round_row.calls": "count",
    "io.round_row.self_s": "s",
    "io.bytes": "bytes",
    "trace.coverage": "share",
    "trace.overhead": "ratio",
}


def _layer(module_name: str) -> str:
    """`dynbal.algorithms.drivers` -> `algorithms`, `dynbal.graphs` -> `graphs`."""
    return module_name.split(".")[1]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def layer_self_seconds(totals) -> dict[str, float]:
    """Summed self time per layer, from `Tracer.totals()`."""
    layers: dict[str, float] = {}
    for name, row in totals.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    return layers


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        # [Dyadic objects, largest exponent seen]
        self.dyadic = [0, 0]
        self.counts = {
            "top_play_rounds": 0,
            "matching_pairs": 0,
            "new_graphs": 0,
            "zero_flip_accepts": 0,
            "sampler_accepts": 0,
        }
        self._last_graph = weakref.WeakKeyDictionary()
        self._undo: list[tuple[object, str, object]] = []
        self._play_ids: set[int] = set()
        self._idle_ids: set[int] = set()

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spanned(self, name: str, fn, on_return=None):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            start[idx] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if on_return is not None:
                on_return(idx, args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _on_play_round(self, idx, args, outcome) -> None:
        up = self.parent[idx]
        if up == -1 or self.name_id[up] not in self._play_ids:
            self.counts["top_play_rounds"] += 1
            self.counts["matching_pairs"] += len(outcome.matching)

    def _on_next_graph(self, idx, args, graph) -> None:
        policy = args[0]
        if self._last_graph.get(policy) is not graph:
            self.counts["new_graphs"] += 1
            self._last_graph[policy] = graph

    def _t_smooth(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(g, t, *args, **kwargs):
            result = fn(g, t, *args, **kwargs)
            if t > 0:
                counts["sampler_accepts"] += 1
                if result is g:
                    # A zero-flip draw: a proposal accepted without the
                    # connectivity test.
                    counts["zero_flip_accepts"] += 1
            return result

        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for fn in SPAN_FUNCTIONS:
            wrapped = self._spanned(f"{_layer(fn.__module__)}.{fn.__name__}", fn)
            for module in CALLER_MODULES:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapped)
        self._patch(smoothing, "t_smooth", self._t_smooth(smoothing.t_smooth))

        for cls in _subclasses(AdversaryPolicy):
            if "next_graph" in cls.__dict__:
                name = f"{_layer(cls.__module__)}.{cls.__name__}.next_graph"
                self._patch(
                    cls,
                    "next_graph",
                    self._spanned(name, cls.__dict__["next_graph"], self._on_next_graph),
                )
        for cls in _subclasses(BalancingAlgorithm):
            for method in ALGORITHM_METHODS:
                if method in cls.__dict__:
                    name = f"{_layer(cls.__module__)}.{cls.__name__}.{method}"
                    hook = self._on_play_round if method == "play_round" else None
                    (self._play_ids if hook else self._idle_ids).add(self._id(name))
                    self._patch(cls, method, self._spanned(name, cls.__dict__[method], hook))

        self._patch(graphs.Graph, "__init__", self._spanned("graphs.Graph", graphs.Graph.__init__))
        build_adj = self._spanned("graphs.adj", graphs.Graph.adj.fget)

        def adj(graph):
            cached = graph._adj
            return cached if cached is not None else build_adj(graph)

        self._patch(graphs.Graph, "adj", property(adj))

        dyadic_init = Dyadic.__init__
        tally = self.dyadic

        def init(value, num, exp=0):
            dyadic_init(value, num, exp)
            tally[0] += 1
            if value.exp > tally[1]:
                tally[1] = value.exp

        self._patch(Dyadic, "__init__", init)
        self._patch(Dyadic, "decimal_str", self._spanned("dyadic.decimal_str", Dyadic.decimal_str))
        self._patch(
            io.TraceCsvWriter,
            "round_row",
            self._spanned("io.round_row", io.TraceCsvWriter.round_row),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        count = len(self.start)
        child = array("q", bytes(8 * count))
        duration = array("q", bytes(8 * count))
        for i in range(count):
            d = self.end[i] - self.start[i]
            duration[i] = d
            up = self.parent[i]
            if up >= 0:
                child[up] += d
        out = {name: {"calls": 0, "s": 0, "self_s": 0} for name in self.names}
        for i in range(count):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["s"] += duration[i]
            row["self_s"] += duration[i] - child[i]
        for row in out.values():
            row["s"] /= 1e9
            row["self_s"] /= 1e9
        return out

    def top_level_seconds(self, ids: set[int]) -> float:
        """Summed duration of spans named in `ids` that no such span encloses."""
        total = 0
        for i in range(len(self.start)):
            if self.name_id[i] in ids:
                up = self.parent[i]
                if up == -1 or self.name_id[up] not in ids:
                    total += self.end[i] - self.start[i]
        return total / 1e9

    def per_layer_metrics(
        self, totals, *, rounds_played: int, traced_wall: float, overhead: float, csv_bytes: int
    ) -> dict[str, float]:
        """`totals` comes from `totals()`; `traced_wall` is the traced pass's
        host wall time; `overhead` the traced over the untraced wall time of
        the trial set."""
        layers = layer_self_seconds(totals)

        def pick(suffix: str, field: str) -> float:
            return sum(row[field] for name, row in totals.items() if name.endswith(suffix))

        def one(name: str, field: str) -> float:
            return totals.get(name, {field: 0})[field]

        simulated = self.counts["top_play_rounds"]
        next_calls = pick(".next_graph", "calls")
        proposals = one("graphs.edge_set_connected", "calls") + self.counts["zero_flip_accepts"]
        all_self = sum(row["self_s"] for row in totals.values())
        return {
            "engine.self_s": layers.get("engine", 0.0),
            "engine.rounds_played": rounds_played,
            "engine.rounds_simulated": simulated,
            "engine.fast_forward_share": 1 - simulated / rounds_played if rounds_played else 0.0,
            "engine.consume_idle_rounds.s": self.top_level_seconds(self._idle_ids),
            "adversaries.next_graph.calls": next_calls,
            "adversaries.next_graph.self_s": pick(".next_graph", "self_s"),
            "adversaries.new_graph_share": self.counts["new_graphs"] / next_calls
            if next_calls
            else 0.0,
            "graphs.Graph.calls": one("graphs.Graph", "calls"),
            "graphs.Graph.s": one("graphs.Graph", "s"),
            "graphs.adj_builds": one("graphs.adj", "calls"),
            "graphs.adj.s": one("graphs.adj", "s"),
            "graphs.is_connected.calls": one("graphs.is_connected", "calls"),
            "graphs.is_connected.s": one("graphs.is_connected", "s"),
            "graphs.edge_set_connected.calls": one("graphs.edge_set_connected", "calls"),
            "graphs.edge_set_connected.s": one("graphs.edge_set_connected", "s"),
            "graphs.nodes_within.calls": one("graphs.nodes_within", "calls"),
            "graphs.nodes_within.s": one("graphs.nodes_within", "s"),
            "smoothing.k_smooth.calls": one("smoothing.k_smooth", "calls"),
            "smoothing.k_smooth.self_s": one("smoothing.k_smooth", "self_s"),
            "smoothing.proposals": proposals,
            "smoothing.accept_ratio": self.counts["sampler_accepts"] / proposals
            if proposals
            else 0.0,
            "algorithms.play_round.calls": pick(".play_round", "calls"),
            "algorithms.play_round.self_s": pick(".play_round", "self_s"),
            "algorithms.matching_pairs": self.counts["matching_pairs"],
            "metrics.check_round.calls": one("metrics.check_round", "calls"),
            "metrics.check_round.self_s": one("metrics.check_round", "self_s"),
            "metrics.potential.calls": one("metrics.potential", "calls"),
            "metrics.potential.s": one("metrics.potential", "s"),
            "metrics.max_gap.s": one("metrics.max_gap", "s"),
            "dyadic.objects": self.dyadic[0],
            "dyadic.max_exp": self.dyadic[1],
            "dyadic.decimal_str.s": one("dyadic.decimal_str", "s"),
            "loads.total_load.calls": one("loads.total_load", "calls"),
            "loads.total_load.s": one("loads.total_load", "s"),
            "io.round_row.calls": one("io.round_row", "calls"),
            "io.round_row.self_s": one("io.round_row", "self_s"),
            "io.bytes": csv_bytes,
            "trace.coverage": all_self / traced_wall,
            "trace.overhead": overhead,
        }

    def write_spans(self, path) -> None:
        """One line per span: id, parent id, name, start and end in ns."""
        with open(path, "w") as out:
            out.write("id,parent,name,start_ns,end_ns\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(
                    f"{i},{self.parent[i]},{names[self.name_id[i]]},{self.start[i]},{self.end[i]}\n"
                )
