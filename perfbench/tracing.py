"""Span tracing from outside the program, and the span arithmetic behind
the per-layer metrics.

`instrument` wraps the public functions of every rieszlab layer module (the
names in its `__all__` that the module itself defines) plus the ring
evaluation `TaylorPoly.boundary_values`, and rebinds each wrapper at every
site that imported the function (`rieszlab.theorems.hardy_norm`,
`rieszlab.gridlab.minorant_value`, ...).  Leaving the context restores every
original binding, so an untraced run calls the unwrapped functions.

Each span records its name, start, end and parent span.  The program runs
single-threaded, so spans nest strictly: the children of one span are
disjoint and lie inside it, and the part of a span its children cover is the
sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("maps", "quadrature", "hilbert", "theorems", "gridlab", "constants", "battery")
RING = "maps.boundary_values"

# wrapped calls whose reports feed the throughput metrics
KEEP_RESULTS = (
    "theorems.verify_theorem",
    "gridlab.verify_pointwise",
    "gridlab.check_submean",
    "gridlab.check_pluri_lines",
)


class Tracer:
    """In-memory span store; spans are appended in start order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.nested = array("b")  # 1 when a span of the same name is open
        self._stack: list[int] = []
        self._open: list[int] = []  # open spans per name id
        self.ring_points = 0
        self.results: dict[str, list] = {name: [] for name in KEEP_RESULTS}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        stack, open_ = self._stack, self._open
        results = self.results.get(name)
        is_ring = name == RING

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.nested.append(open_[nid] > 0)
            self.start.append(0.0)  # stamped below, after this bookkeeping
            self.end.append(0.0)
            if is_ring:
                self.ring_points += _ring_nodes(*args, **kwargs)
            stack.append(idx)
            open_[nid] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self.start[idx] = t0
                open_[nid] -= 1
                stack.pop()
            if results is not None:
                results.append(out)
            return out

        traced.__perfbench_traced__ = True
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def save(self, path, env: dict) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            env=np.array(json.dumps(env)),
        )


def _ring_nodes(self, n, r=1.0):
    return n


def _rieszlab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "rieszlab"]


def public_functions():
    """(span name, owner, attribute, function) for every traced function."""
    from rieszlab.maps import TaylorPoly

    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"rieszlab.{layer}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out.append((f"{layer}.{attr}", mod, attr, fn))
    out.append((RING, TaylorPoly, "boundary_values", TaylorPoly.boundary_values))
    return out


def binding_sites(fn) -> list[tuple[object, str]]:
    """Every (module, attribute) of the package that is bound to fn."""
    return [
        (mod, attr)
        for mod in _rieszlab_modules()
        for attr, value in vars(mod).items()
        if value is fn
    ]


@contextmanager
def instrument(tracer: Tracer):
    """Rebind every traced function to a span-recording wrapper."""
    patches = []
    for name, owner, attr, fn in public_functions():
        wrapper = tracer.wrap(fn, name)
        sites = [(owner, attr)] if inspect.isclass(owner) else binding_sites(fn)
        patches += [(site, site_attr, fn, wrapper) for site, site_attr in sites]
    try:
        for site, attr, _, wrapper in patches:
            setattr(site, attr, wrapper)
        yield patches
    finally:
        for site, attr, fn, _ in patches:
            setattr(site, attr, fn)


# ------------------------------ span arithmetic ------------------------------


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover."""
    start, end, parent = np.asarray(start), np.asarray(end), np.asarray(parent)
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def span_table(tracer: Tracer) -> dict[str, dict[str, float]]:
    """calls, busy_s and self_s per span name.

    busy_s counts each span whose name is not already open further up the
    stack, so a function that re-enters itself is not counted twice.
    """
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    start = np.frombuffer(tracer.start)
    end = np.frombuffer(tracer.end)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    nested = np.frombuffer(tracer.nested, dtype=np.int8).astype(bool)
    n = len(tracer.names)
    dur = end - start
    calls = np.bincount(name_id, minlength=n)
    busy = np.bincount(name_id[~nested], weights=dur[~nested], minlength=n)
    self_s = np.bincount(name_id, weights=self_times(start, end, parent), minlength=n)
    return {
        name: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(self_s[i])}
        for i, name in enumerate(tracer.names)
    }


def layer_entries(tracer: Tracer, layer: str) -> int:
    """Spans of a layer whose parent span belongs to another layer."""
    prefix = layer + "."
    in_layer = np.array([name.startswith(prefix) for name in tracer.names] + [False])
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    parent_name = np.where(parent >= 0, name_id[parent], len(tracer.names))
    return int(np.count_nonzero(in_layer[name_id] & ~in_layer[parent_name]))

