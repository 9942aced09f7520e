"""Span tracer that wraps hodgelab's public functions from outside the package.

``Tracer.install`` replaces every public module-level function of the layer
modules under every name a hodgelab module binds it to (``spectral`` calls
``reweighted`` through its own global, ``divergence`` calls
``chi.leibniz_remainder`` the same way), so a call made between layers opens a
span no matter which module makes it.  Span stacks are per thread; the
thread-pool helper is wrapped so that work it fans out records the caller's
span as its parent.

Self time is attributed on a single time line: at every instant the elapsed
time is split evenly among the open spans that have no open child.  For
spans that do not overlap this is a span's duration minus the union of its
children's intervals, and over a whole traced call tree the self times add
up to the root span's wall time, also when a thread pool runs children side
by side.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
import types
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass

LAYERS = ("complexes", "generators", "chi", "divergence", "operators", "spectral", "cli")
PACKAGE = "hodgelab"


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    thread: int
    start: float
    end: float = float("nan")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._built: dict = {}
        self._undo: list = []

    # --- span bookkeeping ------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Id of the innermost open span of this thread, or the span that
        handed this thread its work."""
        stack = self._stack()
        return stack[-1].id if stack else getattr(self._local, "inherited", None)

    def open(self, name: str, layer: str) -> Span:
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        span = Span(sid, name, layer, self.current(), threading.get_ident(), self.clock())
        self.spans.append(span)
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack().pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._built: dict = {}

    def wrap(self, fn, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(fn.__name__, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            tracer._count(layer, fn.__name__, args, kwargs, result)
            return result

        return traced

    def fan_out(self, map_fn):
        """Wrap a map-over-a-pool helper so workers inherit the caller's span."""
        tracer = self

        @functools.wraps(map_fn)
        def traced_map(fn, items):
            parent = tracer.current()

            def run(item):
                saved = getattr(tracer._local, "inherited", None)
                tracer._local.inherited = parent
                try:
                    return fn(item)
                finally:
                    tracer._local.inherited = saved

            return map_fn(run, items)

        return traced_map

    # --- counters read from arguments and return values --------------------

    def _count(self, layer, name, args, kwargs, result) -> None:
        c = self.counts
        if layer in ("complexes", "generators"):
            seen = self._built.get(id(result))
            if type(result).__name__ == "WeightedComplex" and (seen is None or seen() is not result):
                # weak references, so that counting keeps no complex alive
                self._built[id(result)] = weakref.ref(result)
                c["complexes.built"] += 1
                c["complexes.simplices_built"] += result.num_simplices()
        elif layer == "chi":
            if name == "energy_functional":
                c["chi.energy_evals"] += 1
            elif name == "make_plateau_cutoff":
                c["chi.cutoffs_built"] += 1
        elif layer == "operators":
            if name.endswith("_apply"):
                c["operators.applies"] += 1
            if name == "coboundary_matrix":
                c["operators.incidence_builds"] += 1
            parent = self._parent_layer()
            if parent != "operators":
                matrix = getattr(result, "matrix", result)
                if hasattr(matrix, "nnz"):
                    c["operators.block_nnz"] += int(matrix.nnz)
        elif layer == "spectral" and name == "spectrum":
            method = getattr(result, "method", "")
            if method in ("dense", "iterative"):
                c[f"spectral.{method}_solves"] += 1
            cx, degree = _bound(args, kwargs, ("cx", "degree"))
            c["spectral.solved_rows"] += cx.size(degree)
        elif layer == "cli" and name.startswith("cmd_") and args:
            path = getattr(args[0], "output", None)
            if path and os.path.exists(path):
                c["cli.report_bytes"] += os.path.getsize(path)

    def _parent_layer(self) -> str | None:
        """Layer of the span enclosing the call that just returned."""
        stack = self._stack()
        return stack[-1].layer if stack else None

    # --- installing into the package ---------------------------------------

    def install(self) -> None:
        """Patch every binding of a public layer function in every loaded
        module of the package."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        wrapped: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                replacement = None
                if isinstance(obj, types.FunctionType):
                    layer = _layer_of(obj)
                    if layer and obj.__name__.isidentifier() and not obj.__name__.startswith("_"):
                        replacement = wrapped.get(id(obj))
                        if replacement is None:
                            replacement = wrapped[id(obj)] = self.wrap(obj, layer)
                    elif obj.__module__ == PACKAGE + "._parallel" and obj.__name__ == "map_deterministic":
                        replacement = wrapped.get(id(obj))
                        if replacement is None:
                            replacement = wrapped[id(obj)] = self.fan_out(obj)
                if replacement is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, replacement)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo = []

    # --- analysis ------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Self time of every closed span, by span id (see module docstring)."""
        by_id = {s.id: s for s in self.spans}
        events = []
        for s in self.spans:
            events.append((s.start, 1, s.id))
            events.append((s.end, 0, s.id))
        events.sort(key=lambda e: (e[0], e[1]))
        own = defaultdict(float)
        open_children = defaultdict(int)
        open_ids: set[int] = set()
        leaves: set[int] = set()
        prev = None
        for t, kind, sid in events:
            if prev is not None and leaves and t > prev:
                share = (t - prev) / len(leaves)
                for leaf in leaves:
                    own[leaf] += share
            prev = t
            parent = by_id[sid].parent
            if kind == 1:
                open_ids.add(sid)
                leaves.add(sid)
                if parent in open_ids:
                    open_children[parent] += 1
                    leaves.discard(parent)
            else:
                open_ids.discard(sid)
                leaves.discard(sid)
                if parent in open_ids:
                    open_children[parent] -= 1
                    if open_children[parent] == 0:
                        leaves.add(parent)
        return {s.id: own[s.id] for s in self.spans}

    def layer_self_times(self) -> dict[str, float]:
        layer = {s.id: s.layer for s in self.spans}
        out: dict[str, float] = defaultdict(float)
        for sid, t in self.self_times().items():
            out[layer[sid]] += t
        return dict(out)

    def to_json(self) -> list:
        return [[s.id, s.parent, s.layer, s.name, s.thread, s.start, s.end] for s in self.spans]


def _layer_of(fn) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    prefix = PACKAGE + "."
    if module.startswith(prefix) and module[len(prefix):] in LAYERS:
        return module[len(prefix):]
    return None


def _bound(args, kwargs, names):
    values = list(args[:len(names)])
    for name in names[len(values):]:
        values.append(kwargs[name])
    return values
