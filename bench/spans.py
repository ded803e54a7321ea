"""Spans around bilingap's layers, recorded from outside the library.

``Tracer.installed()`` replaces each layer's public functions at the module
attributes their callers look up (``bilingap.envelopes.solve_min``,
``bilingap.experiments.cut_range_bruteforce``, ...) with wrappers that record
a span: name, parent span, thread, start, end, and work counts computed from
the call's arguments and result.  Spans stay in memory until the run ends.
Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable


def _graph_edges(args, result):
    return {"edges": result.num_edges}


def _search_counts(args, result):
    return {
        "trials": result.trials_used,
        "fallbacks": int(result.case_taken == "brute_fallback"),
        "met": int(result.meets_guarantee),
    }


@dataclass(frozen=True)
class Layer:
    name: str
    targets: tuple[str, ...]  # "module:attribute" or "module:Class.method"
    counts: Callable | None = None  # (bound arguments, result) -> {count: value}
    anchor: bool = False  # spans opened by pool threads attach to the innermost anchor


ENUM_TARGETS = (
    "bilingap.envelopes:cut_range_bruteforce",
    "bilingap.experiments:cut_range_bruteforce",
    "bilingap.hullcheck:cut_range_bruteforce",
    "bilingap.cuts:max_cut_bruteforce",
    "bilingap.cuts:min_cut_bruteforce",
)
GEN_TARGETS = tuple(
    f"bilingap.experiments:{fn}"
    for fn in (
        "random_pm1_complete",
        "uniform_real_complete",
        "random_signed_graph",
        "signed_cycle",
        "signed_path",
    )
)

LAYERS = (
    Layer(
        "simplex.solve",
        ("bilingap.envelopes:solve_min",),
        lambda a, r: {"columns": a["a_mat"].shape[1]},
    ),
    Layer("envelopes.lp", ("bilingap.envelopes:hull_envelopes_lp",)),
    Layer("envelopes.mccormick", ("bilingap.envelopes:mccormick_envelopes",)),
    Layer("cuts.enum", ENUM_TARGETS, lambda a, r: {"cuts": 1 << len(a["x"])}),
    Layer(
        "cuts.table",
        ("bilingap.experiments:all_subset_cut_extremes",),
        lambda a, r: {"pairs": 3 ** a["g"].n},
    ),
    Layer(
        "hullcheck.check",
        ("bilingap.experiments:check_hull_exact",),
        lambda a, r: {"edges": a["g"].num_edges},
    ),
    Layer("cuts.search", ("bilingap.experiments:find_large_cut",), _search_counts),
    Layer("cuts.partition", ("bilingap.cuts:half_weight_partition",)),
    Layer("instances.gen", GEN_TARGETS, _graph_edges),
    Layer("experiments.driver", ("bilingap.experiments:run_experiment",), anchor=True),
    Layer("experiments.write", ("bilingap.experiments:RecordWriter.write",)),
)
# per-layer count metric -> (layer, count key); rates divide by the layer's busy time
COUNT_METRICS = {
    "simplex.solve.columns": ("simplex.solve", "columns"),
    "cuts.enum.cuts": ("cuts.enum", "cuts"),
    "cuts.table.pairs": ("cuts.table", "pairs"),
    "hullcheck.check.edges": ("hullcheck.check", "edges"),
    "cuts.search.trials": ("cuts.search", "trials"),
    "cuts.search.fallbacks": ("cuts.search", "fallbacks"),
    "instances.gen.edges": ("instances.gen", "edges"),
}
RATE_METRICS = ("simplex.solve.columns", "cuts.enum.cuts", "cuts.table.pairs")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    def to_list(self) -> list:
        return [self.id, self.parent, self.name, self.thread, self.start, self.end, self.counts]


def _resolve(target: str):
    """(owner object, attribute name) for "module:attr" or "module:Class.method"."""
    module, path = target.split(":")
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._anchors: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, anchor: bool = False):
        """Record one span; a thread with no open span attaches to the innermost anchor."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._anchors[-1] if self._anchors else None)
        sp = Span(next(self._ids), parent, name, threading.get_ident(), time.perf_counter())
        self.spans.append(sp)
        stack.append(sp.id)
        if anchor:
            self._anchors.append(sp.id)
        try:
            yield sp
        finally:
            if anchor:
                self._anchors.pop()
            stack.pop()
            sp.end = time.perf_counter()

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        sig = inspect.signature(fn) if layer.counts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer.name, layer.anchor) as sp:
                result = fn(*args, **kwargs)
                if sig is not None:
                    sp.counts = layer.counts(sig.bind(*args, **kwargs).arguments, result)
                return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer target for the duration of the block, then restore the originals."""
        saved = []
        try:
            for layer in LAYERS:
                for target in layer.targets:
                    owner, attr = _resolve(target)
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(layer, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds, self seconds and summed counts.

    Busy time is the sum of span durations; self time subtracts the part of
    each span's interval that its child spans cover (their union, since
    children from a thread pool overlap).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    totals: dict[str, dict[str, float]] = {}
    for sp in spans:
        t = totals.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        dur = sp.end - sp.start
        t["calls"] += 1
        t["s"] += dur
        t["self_s"] += dur - _covered(children.get(sp.id, []), sp.start, sp.end)
        for key, value in sp.counts.items():
            t[key] = t.get(key, 0) + value
    return totals


def layer_metrics(totals: dict, out_bytes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        t = totals.get(layer.name, {})
        m[f"{layer.name}.calls"] = (t.get("calls", 0), "count")
        m[f"{layer.name}.s"] = (t.get("s", 0.0), "s")
        m[f"{layer.name}.self_s"] = (t.get("self_s", 0.0), "s")
    for metric, (layer, key) in COUNT_METRICS.items():
        m[metric] = (totals.get(layer, {}).get(key, 0), "count")
    for metric in RATE_METRICS:
        busy = m[f"{COUNT_METRICS[metric][0]}.s"][0]
        m[f"{metric}_per_s"] = (m[metric][0] / busy if busy else 0.0, "1/s")
    search = totals.get("cuts.search", {})
    calls = search.get("calls", 0)
    m["cuts.search.met_ratio"] = (search.get("met", 0) / calls if calls else 0.0, "ratio")
    m["experiments.write.bytes"] = (out_bytes, "bytes")
    return m
