"""In-memory span tracer for the benchmark's traced run.

The tracer replaces a module attribute with a wrapper that records one
span per call: name, start, end and the index of the enclosing span.
Spans stay in memory; the benchmark turns them into per-layer metrics
when the run ends.  Calls are single-threaded, so the enclosing span is
the top of a stack.
"""

from __future__ import annotations

import functools
import statistics
import time
import types


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float, parent: int):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 at the root

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Wraps module attributes and records a span per call.

    ``observe(tracer, args, kwargs, result, exc)`` callbacks let a wrapped
    function feed counters from its arguments, return value or exception.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(index)
            result = exc = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if observe is not None:
                    observe(self, args, kwargs, result, exc)

        setattr(module, attr, traced)
        self._installed.append((module, attr, fn))

    def unwrap_all(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    def durations(self, name: str) -> list:
        return [s.end - s.start for s in self.spans if s.name == name]


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds to a plain call of a no-op function."""
    holder = types.SimpleNamespace(noop=lambda: None)
    plain = time.perf_counter()
    for _ in range(calls):
        holder.noop()
    plain = time.perf_counter() - plain
    Tracer().wrap(holder, "noop", "bench.noop")
    traced = time.perf_counter()
    for _ in range(calls):
        holder.noop()
    traced = time.perf_counter() - traced
    return max(traced - plain, 0.0) / calls


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for kid in sorted(kids, key=lambda k: k.start):
            lo = max(kid.start, reach)
            hi = min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def self_time_by_layer(spans) -> dict:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    That is the eleventh-largest sample, at percentile 100*(n-10)/n; with
    ten samples or fewer there is no such percentile and (0.0, 0.0) is
    returned.
    """
    n = len(values)
    if n <= 10:
        return 0.0, 0.0
    ordered = sorted(values)
    return float(ordered[n - 11]), 100.0 * (n - 10) / n
