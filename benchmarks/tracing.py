"""Spans around lcwcheck's public functions, recorded from outside.

``Tracer.install`` replaces every public function and public method that
the modules below define (and every name that re-exports one) with a
wrapper that records a span: name, start, end, parent span and the item
it belongs to.  ``JetSpace.mul`` runs tens of thousands of times per item,
so it is only counted and timed, and its time is charged to the span
that called it.  ``remove`` puts every original back.  The program's
source is not changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("jets", "dsl", "pipeline", "bivectors", "obstructions", "perturbation", "catalog", "cli")
ITEM_SPAN = "bench.item"


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, parent id, item id, name, start, end)
        self.stack = []
        self.item_id = None
        self.mul_calls = 0
        self.mul_seconds = 0.0
        self.counted_inside = defaultdict(float)  # span id -> seconds in JetSpace.mul
        self._next_id = 0
        self._item_span = None
        self._undo = []

    # -- spans ------------------------------------------------------------------

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def begin_item(self, item_id):
        self.item_id = item_id
        self._item_span = self._new_id()
        self.stack.append(self._item_span)

    def end_item(self, start, end):
        self.stack.pop()
        self.spans.append((self._item_span, None, self.item_id, ITEM_SPAN, start, end))
        self.item_id = None

    def span(self, name, fn):
        """Wrap ``fn`` so that each outermost call records a span; calls
        that re-enter the same wrapper (recursion) are not recorded again."""
        tracer = self
        busy = [False]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if busy[0]:
                return fn(*args, **kwargs)
            busy[0] = True
            sid = tracer._new_id()
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                busy[0] = False
                tracer.spans.append((sid, parent, tracer.item_id, name, start, end))

        return wrapper

    def _counted_mul(self, mul):
        tracer = self

        @functools.wraps(mul)
        def counted(space, a, b):
            start = time.perf_counter()
            out = mul(space, a, b)
            dt = time.perf_counter() - start
            tracer.mul_calls += 1
            tracer.mul_seconds += dt
            if tracer.stack:
                tracer.counted_inside[tracer.stack[-1]] += dt
            return out

        return counted

    # -- installing wrappers --------------------------------------------------------

    def _patch(self, namespace, key, value):
        original = namespace[key]
        self._undo.append(lambda: namespace.__setitem__(key, original))
        namespace[key] = value

    def _patch_class(self, cls, attr, value):
        original = vars(cls)[attr]
        self._undo.append(lambda: setattr(cls, attr, original))
        setattr(cls, attr, value)

    def install(self):
        package = importlib.import_module("lcwcheck")
        modules = {m: importlib.import_module(f"lcwcheck.{m}") for m in MODULES}
        namespaces = [vars(package)] + [vars(m) for m in modules.values()]
        jets = modules["jets"]
        if hasattr(jets, "JetSpace") and "mul" in vars(jets.JetSpace):
            self._patch_class(jets.JetSpace, "mul", self._counted_mul(jets.JetSpace.mul))
        for short, module in modules.items():
            if short == "jets":
                continue
            source = inspect.getsourcefile(module)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self.span(f"{short}.{name}", obj)
                    for ns in namespaces:
                        for key, value in list(ns.items()):
                            if value is obj:
                                self._patch(ns, key, wrapper)
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn):
                            continue
                        if attr == "__init__" and fn.__code__.co_filename == source:
                            self._patch_class(obj, attr, self.span(f"{short}.{name}", fn))
                        elif not attr.startswith("_"):
                            self._patch_class(obj, attr, self.span(f"{short}.{name}.{attr}", fn))
        group = getattr(modules["cli"], "main", None)
        if group is not None and callable(getattr(group, "main", None)):
            # the click group: a span per in-process command, removed again
            # by deleting the instance attribute
            group.main = self.span("cli.main", group.main)
            self._undo.append(lambda: delattr(group, "main"))
        return self

    def remove(self):
        while self._undo:
            self._undo.pop()()

    def reset(self):
        """Forget spans and counts; the wrappers stay installed."""
        self.spans.clear()
        self.counted_inside.clear()
        self.mul_calls = 0
        self.mul_seconds = 0.0

    # -- summaries ------------------------------------------------------------------

    def self_seconds_by_module(self):
        """Self time per module: a span's duration minus its child spans
        and the counted JetSpace.mul time inside it; the jets module gets
        the counted time."""
        children = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        out = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            out[name.split(".")[0]] += end - start - children[sid] - self.counted_inside[sid]
        out["jets"] += self.mul_seconds
        return dict(out)

    def write(self, path, header, max_spans=300_000):
        t0 = min((s[4] for s in self.spans), default=0.0)
        doc = dict(header)
        doc["span_fields"] = ["id", "parent", "item", "name", "start_ms", "end_ms"]
        doc["spans_total"] = len(self.spans)
        doc["spans"] = [
            [sid, parent, item, name, (start - t0) * 1e3, (end - t0) * 1e3]
            for sid, parent, item, name, start, end in self.spans[:max_spans]
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh, allow_nan=False)
