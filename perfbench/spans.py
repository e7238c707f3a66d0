"""In-memory spans and counters for the traced benchmark run.

The benchmark wraps each public library call it makes in a span. Spans
stay in memory and are aggregated once the run ends: a span's self time
is its duration minus the time its child spans cover. Counters record
work done (digits produced, nodes expanded, refusals) at the same
boundaries, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "calls", "child_s")

    def __init__(self, name, start, parent, op, calls):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.calls = calls
        self.child_s = 0.0


class Tracer:
    """Records nested spans per operation id, plus named counters."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[Span] = []
        self._op = None

    def begin_op(self, op_id) -> None:
        self._op = op_id

    @contextmanager
    def span(self, name: str, calls: int = 1):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), parent, self._op, calls)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += s.end - s.start
            self.spans.append(s)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def summary(self) -> dict[str, float]:
        """``<span>.calls`` and ``<span>.self_ms`` per span name, plus counters."""
        out: dict[str, float] = {}
        for s in self.spans:
            calls = f"{s.name}.calls"
            self_ms = f"{s.name}.self_ms"
            out[calls] = out.get(calls, 0) + s.calls
            out[self_ms] = out.get(self_ms, 0.0) + 1000 * (s.end - s.start - s.child_s)
        out.update(self.counts)
        return out


_NO_SPAN = nullcontext()


class NullTracer:
    """Stand-in for untraced runs: a span is one shared no-op context."""

    enabled = False

    def begin_op(self, op_id) -> None:
        pass

    def span(self, name: str, calls: int = 1):
        return _NO_SPAN

    def count(self, name: str, amount: float = 1) -> None:
        pass

    def peak(self, name: str, value: float) -> None:
        pass
