"""Spans around labimpute's public functions, recorded from outside the package.

The package modules import one another by name (``from .forest import
fit_forest``), so a function is wrapped under every module attribute that
holds it, not only in its home module.  Each wrapped call records a span
(name, layer, start, end, parent, thread, phase) in memory; nothing is
written until the benchmark ends.  Parents come from a per-thread stack.  A
span opened on a worker thread with an empty stack (a harness cell running
on the thread pool) takes the innermost open span of the installing thread
as its parent, so a layer's self time is its span minus the union of its
children's intervals even when those children ran on other threads.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np
from labimpute.data import ColumnKind

# layer -> public functions timed at that layer's boundary
TARGETS = {
    "data": ("load_csv", "train_test_split", "apply_mcar", "scale_minmax",
             "concat_rows", "masked_mse"),
    "forest": ("fit_forest", "predict", "predict_with_missing"),
    "imputers": ("missforest_impute", "mice_impute"),
    "strategies": ("cbmi_predict", "iclf_predict", "rf_missing_predict",
                   "iul_impute", "di_impute"),
    "harness": ("run_experiment", "emit_report", "load_experiment_config",
                "resolve_dataset"),
    "cli": ("cli_main",),
}


@dataclass
class Span:
    sid: int
    parent: int | None
    thread: int
    phase: str
    layer: str
    name: str
    t0: float
    t1: float
    attrs: dict | None


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def count_nodes(model) -> int | None:
    """Nodes in every tree of a fitted ForestModel, or None if the tree
    representation is not the linked ``_Split``/``_Leaf`` one this walker
    knows.  A change to the tree layout needs a matching change here."""
    total = 0
    for root in model.trees:
        stack = [root]
        while stack:
            node = stack.pop()
            total += 1
            if hasattr(node, "left") and hasattr(node, "right"):
                if node.left is None or node.right is None:
                    return None
                stack.append(node.left)
                stack.append(node.right)
            elif not hasattr(node, "value"):
                return None
    return total


def mice_solves(table, params) -> int:
    """Ridge solves one mice_impute call performs, computed from its input:
    per sweep, one per continuous column with holes and one per observed
    category of each categorical column with holes."""
    if not table.missing.any():
        return 0
    per_sweep = 0
    for j, col in enumerate(table.schema):
        holes = table.missing[:, j]
        if not holes.any():
            continue
        if col.kind is ColumnKind.CATEGORICAL:
            per_sweep += int(np.unique(table.values[~holes, j]).size)
        else:
            per_sweep += 1
    return per_sweep * params.n_iter


def _fit_attrs(args, kwargs, model):
    return {"trees": len(model.trees), "nodes": count_nodes(model)}


def _predict_attrs(args, kwargs, out):
    model = _arg(args, kwargs, 0, "model")
    return {"rows": _arg(args, kwargs, 1, "X").n_rows, "trees": len(model.trees)}


def _missforest_attrs(args, kwargs, out):
    trace = out[1]
    sweeps = len(trace.sweeps)
    kept = sweeps - 1 if trace.stop_reason == "delta_increase" else sweeps
    return {"sweeps": sweeps, "kept": kept, "stop": trace.stop_reason}


def _mice_attrs(args, kwargs, out):
    return {"solves": mice_solves(_arg(args, kwargs, 0, "table"),
                                  _arg(args, kwargs, 1, "params"))}


_ATTRS = {
    "fit_forest": _fit_attrs,
    "predict": _predict_attrs,
    "predict_with_missing": _predict_attrs,
    "missforest_impute": _missforest_attrs,
    "mice_impute": _mice_attrs,
}


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` puts the originals back."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.missing_targets: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._home_thread = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home_thread:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn):
        attrs_of = _ATTRS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home_stack
                parent = home[-1] if home else None
            sid = next(tracer._ids)
            phase = tracer.phase
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t1, attrs = time.perf_counter(), {"error": True}
                raise
            else:
                t1 = time.perf_counter()
                attrs = attrs_of(args, kwargs, out) if attrs_of else None
                return out
            finally:
                stack.pop()
                tracer.spans.append(Span(sid, parent, threading.get_ident(), phase,
                                         layer, name, t0, t1, attrs))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        importlib.import_module("labimpute")
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "labimpute" or k.startswith("labimpute."))]
        for layer, names in TARGETS.items():
            home = importlib.import_module(f"labimpute.{layer}")
            for name in names:
                fn = getattr(home, name, None)
                if fn is None:
                    self.missing_targets.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(layer, name, fn)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._patched.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "thread": s.thread,
                    "phase": s.phase, "layer": s.layer, "name": s.name,
                    "start": s.t0, "end": s.t1, "attrs": s.attrs,
                }) + "\n")


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        end = s.t0
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.t0):
            lo, hi = max(c.t0, end), min(c.t1, s.t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        out[s.sid] = (s.t1 - s.t0) - covered
    return out


def layer_metrics(spans: list[Span], phase_prefix: str, n_phases: int) -> dict:
    """Per-layer metrics over the spans of the given phases, per phase.

    Times are busy seconds summed over threads; counts are per phase.  A
    ratio whose base is zero (the layer did not run) reads 0.
    """
    sel = [s for s in spans if s.phase.startswith(phase_prefix)]
    selfs = _self_times(spans)
    k = max(n_phases, 1)

    def dur(names):
        return sum(s.t1 - s.t0 for s in sel if s.name in names) / k

    def count(names):
        return sum(1 for s in sel if s.name in names) / k

    def attr_sum(names, key):
        vals = [s.attrs.get(key) for s in sel
                if s.name in names and s.attrs and "error" not in s.attrs]
        if any(v is None for v in vals):
            return None
        return sum(vals) / k

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m: dict[str, float | None] = {}
    fit = ("fit_forest",)
    m["forest.fit_calls"] = count(fit)
    m["forest.fit_s"] = dur(fit)
    m["forest.trees"] = attr_sum(fit, "trees")
    nodes = attr_sum(fit, "nodes")
    m["forest.nodes"] = nodes
    m["forest.us_per_node"] = None if nodes is None else ratio(m["forest.fit_s"], nodes, 1e6)
    pred = ("predict", "predict_with_missing")
    m["forest.predict_s"] = dur(pred)
    rows = [s.attrs["rows"] * s.attrs["trees"] for s in sel
            if s.name in pred and s.attrs and "rows" in s.attrs]
    m["forest.predict_row_trees"] = sum(rows) / k
    m["forest.ns_per_row_tree"] = ratio(m["forest.predict_s"], m["forest.predict_row_trees"], 1e9)

    mf = ("missforest_impute",)
    m["imputers.missforest_s"] = dur(mf)
    sweeps = attr_sum(mf, "sweeps") or 0.0
    m["imputers.sweeps"] = sweeps
    m["imputers.sweep_s"] = ratio(m["imputers.missforest_s"], sweeps)
    m["imputers.kept_sweep_ratio"] = ratio(attr_sum(mf, "kept") or 0.0, sweeps)
    mice = ("mice_impute",)
    m["imputers.mice_s"] = dur(mice)
    solves = attr_sum(mice, "solves") or 0.0
    m["imputers.mice_solves"] = solves
    m["imputers.us_per_solve"] = ratio(m["imputers.mice_s"], solves, 1e6)

    for fn in TARGETS["strategies"]:
        m[f"strategies.{fn}_calls"] = count((fn,))
        m[f"strategies.{fn}_s"] = dur((fn,))
    for layer in ("strategies", "harness", "cli"):
        m[f"{layer}.self_s"] = sum(selfs[s.sid] for s in sel if s.layer == layer) / k
    m["harness.run_s"] = dur(("run_experiment",))
    m["harness.emit_s"] = dur(("emit_report",))
    m["data.calls"] = count(TARGETS["data"])
    m["data.busy_s"] = dur(TARGETS["data"])
    return m
