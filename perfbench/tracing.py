"""Spans around the tvdeblur layers, recorded from outside the package.

A :class:`Tracer` replaces module-level names that callers look up, such as
``tvdeblur.solver.shrink`` or ``tvdeblur.transforms.apply_stencil``, with
wrappers that record one span per call. Each span carries a name, a start
and an end time, the index of its parent span and the id of the operation
it belongs to. Spans are kept in memory; :func:`self_times` and the
aggregation in ``run.py`` read them after the timed passes.

Wrappers record only inside an operation opened with
:meth:`Tracer.operation`, so correctness checks run between operations stay
untraced. The package itself is not modified.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent, op]
        self.extra = {}       # span index -> value recorded by a hook
        self._stack = []
        self._op = -1
        self._patched = []

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, name: str):
        """Open the root span of one operation; yields the operation id."""
        self._op += 1
        index = self._begin(name)
        try:
            yield self._op
        finally:
            self._end(index)

    def wrap(self, func, name: str, hook=None):
        """Return ``func`` wrapped to record a span named ``name``.

        ``hook(args, result)`` may return a value kept in :attr:`extra`
        under the span's index.
        """
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return func(*args, **kwargs)
            index = tracer._begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._end(index)
            if hook is not None:
                tracer.extra[index] = hook(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, hook))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span[START]
        for kid in sorted(kids, key=lambda k: spans[k][START]):
            lo = max(spans[kid][START], reach)
            hi = min(spans[kid][END], span[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span[END] - span[START] - covered)
    return out


def ancestors(spans, index: int):
    """Names of the span's ancestors, nearest first."""
    parent = spans[index][PARENT]
    while parent >= 0:
        yield spans[parent][NAME]
        parent = spans[parent][PARENT]
