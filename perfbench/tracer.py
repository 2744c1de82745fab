"""Spans around the public functions of each `combings` module.

`Tracer.install()` replaces every public module-level function of the
layer modules with a wrapper that records a span (name, start, end, parent
span, operation id).  It also rebinds every `from .x import f` copy of those
functions in the other `combings` modules, because a call through such a
copy would otherwise go untimed.  Spans stay in memory in flat arrays and
are written out by `dump()`; self time is derived from them at the end.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
import types
from array import array

import oracle
from manifest import CACHES, TRACED_FUNCTIONS


def _module(layer: str):
    return importlib.import_module(f"combings.{layer}")


def _is_traceable(obj, module_name: str) -> bool:
    if getattr(obj, "__module__", None) != module_name:
        return False
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


def _box(args, kwargs) -> int:
    if "box" in kwargs:
        return kwargs["box"]
    if len(args) > 2:
        return args[2]
    return _module("combing").DEFAULT_BOX


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.current_op = -1
        # Bit lengths are recorded only while this is set (the first round of
        # a run), so they are read from the same inputs on every run of a seed.
        self.record_bits = False
        self.snf_bits = 0
        self.classes = 0
        self.class_ns = 0
        self.vectors = 0
        self.vector_ns = 0
        self.caches = {}

    # -- recording -------------------------------------------------------------

    def reset(self) -> None:
        for arr in (self.span_name, self.parent, self.op, self.start, self.end):
            del arr[:]
        self.classes = self.class_ns = self.vectors = self.vector_ns = 0

    def wrap(self, name: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        span_name, parent, op = self.span_name, self.parent, self.op
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.current_op)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _after_snf(self, idx, args, kwargs, result) -> None:
        if self.record_bits:
            bits = max(oracle.max_bits(result.U.entries), oracle.max_bits(result.V.entries))
            self.snf_bits = max(self.snf_bits, bits)

    def _after_enumerate(self, idx, args, kwargs, result) -> None:
        self.classes += len(result)
        self.class_ns += self.end[idx] - self.start[idx]

    def _after_image(self, idx, args, kwargs, result) -> None:
        pres = args[0]
        box = _box(args, kwargs)
        count = 1
        for i in range(pres.n):
            parity = pres.matrix.at(i, i) % 2
            count *= sum(1 for v in range(-box, box + 1) if v % 2 == parity)
        self.vectors += count
        # the sweep's time: the span minus its formula-side enumeration
        enumerate_ns = sum(
            self.end[j] - self.start[j]
            for j in range(idx + 1, len(self.span_name))
            if self.parent[j] == idx
            and self.names[self.span_name[j]] == "surgery.enumerate_torsion"
        )
        self.vector_ns += self.end[idx] - self.start[idx] - enumerate_ns

    def install(self) -> None:
        """Wrap every public function of the layer modules, everywhere."""
        for metric, (layer, attr) in CACHES.items():
            self.caches[metric] = getattr(_module(layer), attr, None)
        hooks = {
            "linalg.smith_normal_form": self._after_snf,
            "surgery.enumerate_torsion": self._after_enumerate,
            "combing.p1_image": self._after_image,
        }
        wrapped = {}
        for layer in TRACED_FUNCTIONS:
            mod = _module(layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not _is_traceable(obj, mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self.wrap(name, obj, hooks.get(name)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "combings" and not mod_name.startswith("combings."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    # -- results --------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, int], dict[str, int]]:
        """Calls and self time (ns) per function: a span's duration minus
        the durations of its direct children."""
        n = len(self.span_name)
        child = array("q", bytes(8 * n))
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_ns[k] += end[i] - start[i] - child[i]
        return dict(zip(self.names, calls)), dict(zip(self.names, self_ns))

    def cache_counts(self) -> dict[str, int]:
        out = {}
        for metric, fn in self.caches.items():
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            out[f"cache.{metric}.hits"] = info.hits if info else 0
            out[f"cache.{metric}.misses"] = info.misses if info else 0
            out[f"cache.{metric}.size"] = info.currsize if info else 0
        return out

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines: name, start_ns, end_ns,
        parent span index (-1 for a root) and operation id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.span_name)):
                fh.write(json.dumps([self.names[self.span_name[i]], self.start[i],
                                     self.end[i], self.parent[i], self.op[i]]))
                fh.write("\n")
