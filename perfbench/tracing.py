"""Span recorder for the traced run, fed by wrappers around the package.

The wrappers sit outside the package: `Tracer.install` replaces every
public function of `fedvra` with a timing wrapper in every module
namespace that binds it, so a call through `fedvra.federated.backward`
is seen as well as one through `fedvra.network.backward`.
`Tracer.uninstall` puts the original objects back.

Spans stay in memory until the run ends. A span's parent is the
innermost open span on its own thread; a span opened on a thread with
no open span (a pool worker) is adopted by the innermost open span of
the thread that created the tracer, which is the one waiting on the
pool.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "fedvra"


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name: str, start: float, parent: "Span | None", thread: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._owner_stack = self._stack()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is self._owner_stack:
            parent = None
        else:
            try:
                parent = self._owner_stack[-1]
            except IndexError:  # the owner closed its last span meanwhile
                parent = None
        span = Span(name, 0.0, parent, threading.get_ident())
        self.spans.append(span)
        stack.append(span)
        span.start = span.end = self.clock()
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack().pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(s)

        return traced

    def install(self) -> int:
        """Wrap every public function of the loaded `fedvra` modules.

        Returns the number of module attributes replaced.
        """
        if self._installed:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        module_names = {m.__name__ for m in modules}
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ not in module_names or value.__name__.startswith("_"):
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    layer = value.__module__.rpartition(".")[2]
                    wrapper = wrappers[id(value)] = self.wrap(value, f"{layer}.{value.__name__}")
                setattr(module, attr, wrapper)
                self._installed.append((module, attr, value))
        return len(self._installed)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans) -> dict[Span, list[Span]]:
    out: dict[Span, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            out[s.parent].append(s)
    return out


def self_times(spans) -> dict[Span, float]:
    """Duration minus the part of the span its children cover."""
    kids = children_of(spans)
    return {
        s: s.duration - _union_length([(c.start, c.end) for c in kids.get(s, ())], s.start, s.end)
        for s in spans
    }


def overlaps(spans) -> dict[Span, float]:
    """Time children of each span spent running side by side.

    For any root, its duration equals the sum of the self times plus the
    sum of the overlaps over the spans below it, including itself.
    """
    kids = children_of(spans)
    out = {}
    for s in spans:
        ivals = [(c.start, c.end) for c in kids.get(s, ())]
        clipped = sum(max(0.0, min(e, s.end) - max(b, s.start)) for b, e in ivals)
        out[s] = clipped - _union_length(ivals, s.start, s.end)
    return out


def root_of(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span
