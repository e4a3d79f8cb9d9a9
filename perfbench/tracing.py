"""Per-layer tracing for the benchmark's traced run.

The tracer replaces each public layer function at the module (or class)
attribute its callers look it up through, records one span per call, and
restores every attribute when it is uninstalled.  Spans stay in memory; the
per-layer metrics are computed from them after each traced pass.

A span is ``[name, start, end, parent, item, child_s, pass_no]``: ``parent`` is
the index of the enclosing span (-1 at the top), ``item`` the roster item the
benchmark was running, and ``child_s`` the time covered by direct children, so
that self time is ``end - start - child_s``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from collections import Counter
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Callable, Optional


def _count_pairs(c, args, kwargs, result):
    c["pairs"] += len(kwargs.get("triples", args[1] if len(args) > 1 else ()))


def _count_equalities(c, args, kwargs, result):
    c["rows"] += len(result[0])


def _count_elimination(c, args, kwargs, result):
    rows = len(args[0])
    c["rows"] += rows
    if result is not None:
        nvars = args[2] if len(args) > 2 else kwargs["nvars"]
        c["rank"] += nvars - len(result[1])


def _count_dd(c, args, kwargs, result):
    c["halfspaces"] += len(args[0])
    dim = args[1] if len(args) > 1 else kwargs["dim"]
    c["dim"] = max(c["dim"], dim)
    c["vertices"] += len(result)


def _count_maps(c, args, kwargs, result):
    c["maps"] += len(result)


@dataclass(frozen=True)
class Layer:
    """One traced layer: its metric prefix, the attributes to wrap, its metrics.

    ``targets`` are ``"module:attr"`` or ``"module:Class.attr"``.  A function
    reached through several modules is wrapped at each of them under one name.
    ``metrics`` name what the layer reports: ``self_s`` and ``calls`` come from
    the spans, ``useful_frac`` and ``maps_per_s`` are derived, anything else is
    a counter filled by ``count(counters, args, kwargs, result)``.
    """

    name: str
    targets: tuple[str, ...]
    metrics: tuple[str, ...] = ("self_s",)
    count: Optional[Callable] = None


LAYERS = (
    Layer("catalog.build", ("effectalg.catalog:build_catalog",)),
    Layer("core.validate_axioms",
          ("effectalg.catalog:validate_axioms", "effectalg.core:validate_axioms"),
          ("self_s", "calls", "pairs"), _count_pairs),
    Layer("core.derive_order", ("effectalg.core:derive_order",), ("self_s", "calls")),
    Layer("structure.check_rdp", ("effectalg.structure:check_rdp",)),
    Layer("states.state_equalities", ("effectalg.states:state_equalities",),
          ("self_s", "rows"), _count_equalities),
    Layer("linalg.affine_parametrization", ("effectalg.states:affine_parametrization",),
          ("self_s", "rows", "rank", "useful_frac"), _count_elimination),
    Layer("polytope.dd_vertices", ("effectalg.states:dd_vertices",),
          ("self_s", "halfspaces", "dim", "vertices"), _count_dd),
    Layer("states.compute_states", ("effectalg.states:compute_states",)),
    Layer("states.is_order_determining", ("effectalg.states:is_order_determining",)),
    Layer("operators.enumerate_endomorphisms",
          ("effectalg.operators:enumerate_endomorphisms",),
          ("self_s", "maps", "maps_per_s"), _count_maps),
    Layer("operators.is_endomorphism", ("effectalg.operators:is_endomorphism",),
          ("self_s", "calls")),
    Layer("operators.classify_operator", ("effectalg.operators:classify_operator",)),
    Layer("operators.check_esp", ("effectalg.operators:check_esp",)),
    Layer("states.StatePolytope.vertex_index",
          ("effectalg.states:StatePolytope.vertex_index",), ("self_s", "calls")),
    Layer("operators.induced_state_map", ("effectalg.operators:induced_state_map",),
          ("self_s", "calls")),
    Layer("states.is_state", ("effectalg.operators:is_state",), ("self_s", "calls")),
    Layer("operators.operator_law_report", ("effectalg.operators:operator_law_report",)),
)

UNITS = {"self_s": "s", "useful_frac": "ratio", "maps_per_s": "1/s"}


def metric_names(layers=LAYERS) -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    return [(f"{layer.name}.{m}", UNITS.get(m, "count"))
            for layer in layers for m in layer.metrics]


def _resolve(target: str):
    """(owner, attribute) for a target, or None when the owner is gone."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner, attr


class Tracer:
    """Records spans for every call into the layers while installed."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list[list] = []
        self.item: Optional[str] = None
        self.pass_no = 0
        self.present: list[Layer] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._counters: dict[str, dict] = {}

    def install(self) -> None:
        """Wrap every layer function that exists; a missing one drops its layer."""
        self.present = []
        for layer in self.layers:
            found = False
            for target in layer.targets:
                resolved = _resolve(target)
                if resolved is None:
                    continue
                owner, attr = resolved
                fn = getattr(owner, attr, None)
                if not callable(fn):
                    continue
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(layer, fn))
                found = True
            if found:
                self.present.append(layer)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        name = layer.name
        count = layer.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.item, 0.0, self.pass_no]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - span[1]
            if count is not None:
                count(self._counters[name], args, kwargs, result)
            return result

        return traced

    def begin_pass(self) -> None:
        self.pass_no += 1
        self._first_span = len(self.spans)
        self._counters = {layer.name: Counter() for layer in self.layers}

    def pass_summary(self, factors: Optional[dict] = None) -> dict[str, dict]:
        """Per-layer totals over the spans of the current pass.

        ``factors`` maps an item to the factor that converts its raw seconds
        into the unit the benchmark reports; spans of other items keep raw time.
        """
        factors = factors or {}
        out = {layer.name: {"self_s": 0.0, "incl_s": 0.0, "calls": 0,
                            **self._counters[layer.name]}
               for layer in self.present}
        for name, start, end, _parent, item, child, _p in self.spans[self._first_span:]:
            f = factors.get(item, 1.0)
            s = out[name]
            s["calls"] += 1
            s["incl_s"] += (end - start) * f
            s["self_s"] += (end - start - child) * f
        return out


def layer_metrics(summaries: list[dict], layers=LAYERS) -> dict[str, float]:
    """Per-layer metrics over traced passes: median times, counts of the last pass."""
    out = {}
    if not summaries:
        return out
    last = summaries[-1]
    for layer in layers:
        if layer.name not in last:
            continue
        s = last[layer.name]
        for m in layer.metrics:
            if m == "self_s":
                value = median(p[layer.name]["self_s"] for p in summaries)
            elif m == "useful_frac":
                value = s.get("rank", 0) / s["rows"] if s.get("rows") else 0.0
            elif m == "maps_per_s":
                value = s.get("maps", 0) / s["incl_s"] if s["incl_s"] else 0.0
            else:
                value = s.get(m, 0)
            out[f"{layer.name}.{m}"] = value
    return out


def write_spans(spans: list[list], path) -> None:
    """Gzipped, one tab-separated line per span: name, start, end, parent, item,
    self time, pass."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("name\tstart\tend\tparent\titem\tself_s\tpass\n")
        for name, start, end, parent, item, child, pass_no in spans:
            fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{item}\t"
                     f"{end - start - child:.9f}\t{pass_no}\n")
