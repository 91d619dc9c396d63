"""Spans around calls into the package's public functions.

The benchmark wraps public names from its own files; the package itself
is not changed.  Spans are kept in memory as [name, start, end, parent]
lists, where parent is the index of the enclosing span or -1, and are
written out once the traced run ends.  Hot leaves get a counting wrapper
instead, so that span bookkeeping does not distort their callers.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._ticks = {}

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def counted(self, name: str, fn):
        # next() on an itertools.count is the cheapest counter available
        # to a Python wrapper, about 0.5 us a call.
        tick = self._ticks.setdefault(name, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(tick)
            return fn(*args, **kwargs)
        return wrapper

    def counts(self) -> dict:
        """Calls seen by each counting wrapper; read once, at the end."""
        return {name: next(tick) for name, tick in self._ticks.items()}


def missing_names(package, names) -> list:
    """The names in `names` that `package.__all__` does not export."""
    exported = set(getattr(package, "__all__", ()))
    return [n for n in names if n not in exported or not hasattr(package, n)]


def install_wrappers(tracer: Tracer, package, spanned: dict, counted: dict) -> list:
    """Replace each public name of `package` by a wrapper in every module
    namespace of the package that holds it, so calls made through any
    import are seen.  `spanned` and `counted` map a public name to its
    layer; the span or count is named `<layer>.<name>`.  Returns the names
    missing from `package.__all__`, which are left alone."""
    missing = missing_names(package, [*spanned, *counted])
    modules = [m for key, m in sys.modules.items()
               if key == package.__name__ or key.startswith(package.__name__ + ".")]
    for table, make in ((spanned, tracer.spanned), (counted, tracer.counted)):
        for name, layer in table.items():
            if name in missing:
                continue
            original = getattr(package, name)
            wrapper = make(f"{layer}.{name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
    return missing


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so a self time lies between 0 and the span's duration."""
    children = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(max(0.0, (end - start) - covered))
    return out


def layer_self_times(spans) -> dict:
    """Self time summed per layer, the part of a span name before the
    first dot.  The sums partition the root spans' time."""
    totals = Counter()
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name.split(".", 1)[0]] += own
    return dict(totals)
