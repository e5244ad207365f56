"""In-memory span recorder that wraps the public functions of relcap modules.

Wrapping happens from outside the package: every binding of a wrapped
function in every relcap module is replaced, so calls made through
``from .model import decode_step`` are seen as well as calls made through
the defining module. ``Tracer.uninstall`` puts the original objects back.

A span is (id, name, start, end, parent id, op); ids count span starts, and
spans are stored in the order they end. Self time is a span's duration
minus the time its direct child spans cover; since children nest inside
their parent on one thread, that is the parent's duration minus the sum of
its children's durations.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

# Modules whose public functions are wrapped. ``cli``, ``schemas`` and
# ``errors`` are left out: the benchmark drives the library entry points the
# CLI commands call, and the other two hold no functions.
MODULES = ("autodiff", "apps", "checkpoint", "data", "geometry", "metrics",
           "model", "pipeline", "stemming")

# Methods wrapped in addition to module-level functions: (module, class,
# method, span name).
METHODS = (("data", "ToyFeatureProvider", "features", "data.provider_features"),)


def graph_size(root) -> int:
    """Number of autodiff nodes reachable from ``root`` (the root included)."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Records spans and per-name counters while installed.

    ``op`` is the index of the benchmark operation in progress (-1 between
    operations); each span carries it, so the spans of one operation share
    an identifier.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        # One column per span field, in the order spans end.
        self.columns = {"id": array("q"), "name": array("i"), "start": array("d"),
                        "end": array("d"), "parent": array("q"), "op": array("q")}
        self._next_id = 0
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.op = -1
        self._stack = []           # [span id, start, child time]
        self._meteor_pairs = set()
        self._patched = []         # (owner, attribute, original)

    # -- operations ------------------------------------------------------

    def begin_op(self, index: int) -> None:
        self.op = index
        self._meteor_pairs = set()

    def end_op(self) -> None:
        self.counters["metrics.meteor_lite.distinct_pairs"] += len(self._meteor_pairs)
        self._meteor_pairs = set()
        self.op = -1

    # -- wrapping --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, fn, name: str):
        name_id = self._name_id(name)
        stack = self._stack
        cols = self.columns
        ids, names, starts, ends = cols["id"], cols["name"], cols["start"], cols["end"]
        parents, ops = cols["parent"], cols["op"]
        self_time = self.self_time
        calls = self.calls
        clock = time.perf_counter
        tracer = self
        before = self._before_hook(name)
        after = self._after_hook(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                ids.append(span_id)
                names.append(name_id)
                starts.append(frame[1])
                ends.append(end)
                parents.append(parent)
                ops.append(tracer.op)
                self_time[name] += duration - frame[2]
                calls[name] += 1
                if stack:
                    stack[-1][2] += duration
            if after is not None:
                after(result)
            return result

        return wrapper

    def _before_hook(self, name: str):
        if name == "autodiff.backward":
            def count_nodes(args):
                self.counters["autodiff.graph_nodes"] += graph_size(args[0])
            return count_nodes
        if name == "metrics.meteor_lite":
            def note_pair(args):
                self._meteor_pairs.add((id(args[0]), id(args[1])))
            return note_pair
        return None

    def _after_hook(self, name: str):
        if name == "geometry.combination_layer":
            def count_pairs(result):
                self.counters["geometry.combination_layer.pairs"] += len(result)
            return count_pairs
        return None

    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s modules in place."""
        modules = {m: getattr(package, m) for m in MODULES}
        replacements = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    replacements[id(value)] = (value, self.wrap(value, f"{short}.{attr}"))
        for short, cls_name, method, span_name in METHODS:
            cls = getattr(modules[short], cls_name)
            original = vars(cls)[method]
            self._patched.append((cls, method, original))
            setattr(cls, method, self.wrap(original, span_name))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output ----------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the recorded spans as a numpy ``.npz`` archive: one array
        per column plus ``names``, the span names indexed by ``name``."""
        np.savez(path, names=np.array(self.names),
                 **{key: np.frombuffer(col, dtype=col.typecode) if len(col)
                    else np.zeros(0, dtype=col.typecode) for key, col in self.columns.items()})


def self_times(columns, names):
    """Self time per span name, recomputed from the span columns.

    The tracer accumulates the same sums while it runs; this reference
    version exists so tests can check the running sums against the spans.
    """
    child = defaultdict(float)
    for start, end, parent in zip(columns["start"], columns["end"], columns["parent"]):
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for span_id, name_id, start, end in zip(columns["id"], columns["name"],
                                            columns["start"], columns["end"]):
        out[names[name_id]] += (end - start) - child[span_id]
    return dict(out)
