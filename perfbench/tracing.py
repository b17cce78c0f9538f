"""In-memory spans and self-time accounting for the benchmark's traced run.

A span records one call into a layer: its name, start and end on the
``perf_counter`` clock, its thread, the span that caused it and the op it
belongs to.  Spans stay in memory; the harness turns them into per-layer
metrics after the run.

A call into a layer that is already the innermost open span of the same
thread (``continuation_solve`` calling ``solve``, ``ProblemConfig.
build_operator`` calling ``build_operator``) stays inside that span, so a
layer is counted once per entry from outside it.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter


class Span:
    __slots__ = ("layer", "start", "end", "thread", "parent", "op", "attrs")

    def __init__(self, layer, start, end=None, thread=None, parent=None, op=None):
        self.layer = layer
        self.start = start
        self.end = end
        self.thread = thread
        self.parent = parent
        self.op = op
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped functions, in any thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.main_thread().ident
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks.setdefault(ident, [])
        return stack

    def _parent(self, stack: list[Span]) -> Span | None:
        if stack:
            return stack[-1]
        # A pool worker opens its first span with an empty stack of its own;
        # the work was caused by the span the main thread is blocked in.
        main = self._stacks.get(self._main, [])
        try:
            return main[-1]
        except IndexError:
            return None

    def _open(self, layer: str, stack: list[Span]) -> Span:
        span = Span(
            layer,
            perf_counter(),
            thread=threading.get_ident(),
            parent=self._parent(stack),
            op=self.op,
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def wrap(self, layer: str, fn, on_exit=None):
        """Return ``fn`` recording a ``layer`` span per call.

        ``on_exit(span, args, kwargs, result, exc)`` runs after the call,
        with ``exc`` the exception it raised or None.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            span = tracer._open(layer, stack)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if on_exit is not None:
                    on_exit(span, args, kwargs, result, exc)

        return traced

    def rebind(self, layer: str, fn, modules, on_exit=None) -> None:
        """Replace ``fn`` by its traced form in every module that binds it.

        A function imported by name (``from .solver import solve``) is a
        separate binding in each importing module, so each is replaced.
        """
        traced = self.wrap(layer, fn, on_exit)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, name, value))
                    setattr(module, name, traced)

    def rebind_method(self, layer: str, cls, name: str, on_exit=None) -> None:
        """Replace the method ``cls.name`` by its traced form."""
        original = cls.__dict__[name]
        self._restore.append((cls, name, original))
        setattr(cls, name, self.wrap(layer, original, on_exit))

    def restore(self) -> None:
        """Put back every binding replaced by ``rebind`` and ``rebind_method``."""
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans) -> dict[int, list[Span]]:
    """Map ``id(parent)`` to the spans it caused."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    return children


def self_times(spans) -> dict[int, float]:
    """Self time of each span, keyed by ``id(span)``.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.  Children running at the same time in different
    threads cover one interval once, so the result never goes negative.
    """
    children = children_of(spans)
    out = {}
    for span in spans:
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(id(span), ())
            if c.end > span.start and c.start < span.end
        )
        out[id(span)] = span.duration - covered
    return out
