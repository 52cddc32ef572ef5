"""In-memory spans for the benchmark's traced replay, and the self-time
arithmetic over them.

A span is (name, start_ns, end_ns, parent), where parent is the index
of the enclosing span or None at top level.  The replay is single
threaded, so the children of a span never overlap and a span's self
time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int | None


class Tracer:
    """Collects spans and work counters; nothing is written until the
    caller asks for the spans at the end."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter[str] = Counter()
        self._open: int | None = None

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent, self._open = self._open, idx
        start = perf_counter_ns()
        try:
            yield
        finally:
            self.spans[idx] = Span(name, start, perf_counter_ns(), parent)
            self._open = parent

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount


def self_times_ns(spans: list[Span]) -> Counter[str]:
    """Self time summed per span name."""
    covered = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end_ns - s.start_ns
    out: Counter[str] = Counter()
    for s, child_ns in zip(spans, covered):
        out[s.name] += s.end_ns - s.start_ns - child_ns
    return out


def calls(spans: list[Span]) -> Counter[str]:
    """Number of spans per name."""
    return Counter(s.name for s in spans)


def top_level_ns(spans: list[Span]) -> int:
    """Summed duration of the spans that have no parent."""
    return sum(s.end_ns - s.start_ns for s in spans if s.parent is None)
