"""Per-layer spans recorded from outside the airvote package.

The package's orchestration modules, `airvote.experiment` and
`airvote.analysis`, reach the layers below them through names they import
at module level.  `LayerTracer.installed()` replaces each of those names
whose object is a function defined in a layer module with a wrapper that
records a span, and puts the originals back on exit.  Functions are picked
by their defining module, so a function added to a layer later is traced
without touching this file.

A span is (layer, function, parent span index, start, end) in host seconds.
Spans stay in memory; `summary()` turns them into self time (a span's
duration minus the durations of its direct children) and call counts per
layer and per function.  The wrappers add a few microseconds per call, so
traced runs give shares, not absolute times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

LAYERS = ("learner", "phy", "channel", "detector", "seeding")
CALLERS = ("airvote.experiment", "airvote.analysis")


def layer_of(obj) -> str | None:
    """Layer name of a function defined in one of the layer modules."""
    if not inspect.isfunction(obj):
        return None
    package, _, module = obj.__module__.rpartition(".")
    return module if package == "airvote" and module in LAYERS else None


class LayerTracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, layer: str):
        """`fn` with a span named (layer, fn.__name__) around every call."""
        spans, open_spans, name, clock = self.spans, self._open, fn.__name__, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, name, open_spans[-1] if open_spans else -1, clock(), 0.0])
            open_spans.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_spans.pop()
                spans[index][4] = clock()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer function the caller modules import; undo on exit."""
        patched = []
        try:
            for caller in CALLERS:
                module = importlib.import_module(caller)
                for attr, obj in list(vars(module).items()):
                    layer = layer_of(obj)
                    if layer is not None:
                        setattr(module, attr, self.wrap(obj, layer))
                        patched.append((module, attr, obj))
            yield self
        finally:
            for module, attr, obj in reversed(patched):
                setattr(module, attr, obj)

    def summary(self) -> dict[tuple[str, str], list]:
        """{(layer, function): [self seconds, calls]} over all recorded spans."""
        child_seconds = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child_seconds[parent] += end - start
        totals: dict[tuple[str, str], list] = {}
        for (layer, name, _, start, end), children in zip(self.spans, child_seconds):
            entry = totals.setdefault((layer, name), [0.0, 0])
            entry[0] += end - start - children
            entry[1] += 1
        return totals
