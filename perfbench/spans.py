"""In-memory span tracing for tdlab, installed from outside the package.

`Tracer.install()` replaces every public module-level function of the
layer modules with a wrapper that records a span, and rebinds the names
other tdlab modules imported, so calls across modules are seen too.
`Matrix.__mul__` is wrapped as `matrices.matmul`, counting scalar
multiplications computed from the operand shapes.

A span is (name, trace id, start, end, parent index, self time).  Self
time is the span's duration minus the durations of its direct children,
kept with a stack as spans close.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

LAYERS = (
    "scalars",
    "matrices",
    "polys",
    "tdcore",
    "splitparam",
    "d4orbit",
    "formlab",
    "conjlab",
    "appshell",
    "cli",
)

# Calls that start a new trace id for their subtree: one per request, one per trial.
TRACE_ROOTS = ("cli.run", "appshell.run_trial")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, trace, start, end, parent, self_s, attrs]
        self.stack = []  # open span indices
        self.child_total = []  # child duration accumulated per open span
        self.next_trace = 0
        self.counters = {}
        self._installed = []

    # -- span bookkeeping --------------------------------------------------

    def open(self, name: str) -> int:
        if name in TRACE_ROOTS or not self.stack:
            self.next_trace += 1
            trace = self.next_trace
        else:
            trace = self.spans[self.stack[-1]][1]
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, trace, self.clock(), None, parent, None, None])
        self.stack.append(idx)
        self.child_total.append(0.0)
        return idx

    def close(self, idx: int, attrs=None):
        end = self.clock()
        if not self.stack or self.stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")
        self.stack.pop()
        children = self.child_total.pop()
        span = self.spans[idx]
        duration = end - span[2]
        span[3] = end
        span[5] = duration - children
        span[6] = attrs
        if self.child_total:
            self.child_total[-1] += duration

    def count(self, name: str, amount: int = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, annotate=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(idx, annotate(result) if annotate and result is not None else None)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, package: str = "tdlab", annotate=None):
        """Wrap the public functions of every layer module; undone by `uninstall`."""
        annotate = annotate or {}
        modules = {m: importlib.import_module(f"{package}.{m}") for m in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, self.wrap(name, obj, annotate.get(name)))
        # rebind every module-level reference, including `from x import f` copies
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._installed.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        matrix = modules["matrices"].Matrix
        original_mul = matrix.__mul__
        tracer = self

        def matmul(a, b):
            if not isinstance(b, matrix):
                return original_mul(a, b)
            tracer.count("matrices.matmul.scalar_mults", a.rows * a.cols * b.cols)
            idx = tracer.open("matrices.matmul")
            try:
                return original_mul(a, b)
            finally:
                tracer.close(idx)

        self._installed.append((matrix, "__mul__", original_mul))
        matrix.__mul__ = matmul

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def dump(path, span_list, counters, meta: dict):
    """Write spans as JSON lines after one header line of meta and counters."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": meta, "counters": counters}) + "\n")
        for span in span_list:
            fh.write(json.dumps(span) + "\n")


def load(path):
    """(meta, counters, spans) from a file written by `dump`."""
    with open(path, "r", encoding="utf-8") as fh:
        head = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh if line.strip()]
    return head["meta"], head["counters"], spans


def summarize(spans) -> dict:
    """Per-name call counts, inclusive time of outermost calls, and self time.

    Returns {"names": {name: {"calls", "s", "self_s"}}, "modules": {layer: self_s}}.
    """
    out = {}
    for name, _trace, start, end, parent, self_s, _attrs in spans:
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        # a call nested in a call of the same name is already inside that time
        if not _has_ancestor_named(spans, parent, name):
            entry["s"] += end - start
    modules = {}
    for name, entry in out.items():
        layer = name.split(".", 1)[0]
        modules[layer] = modules.get(layer, 0.0) + entry["self_s"]
    return {"names": out, "modules": modules}


def _has_ancestor_named(spans, parent: int, name: str) -> bool:
    while parent != -1:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][4]
    return False
