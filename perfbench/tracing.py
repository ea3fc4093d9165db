"""Spans around the benchmark's calls into ehcopt, kept in memory.

A span records its name, start, end, parent span and request id.  The
per-layer numbers are derived from the spans after the run: a layer's
self time is its span's duration minus the time its child spans cover.
Counters (work done: arcs expanded, nonzeros built, bytes written, ...)
are recorded at the same boundaries.  ``NullTracer`` is used for the
untraced runs that give the end-to-end metrics.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


class Span:
    __slots__ = ("tracer", "id", "name", "parent", "request", "start", "end")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.id = len(tracer.spans)
        self.parent = tracer.stack[-1].id if tracer.stack else None
        self.request = tracer.request
        tracer.spans.append(self)
        tracer.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.tracer.stack.pop()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.request: int | None = None

    def span(self, name: str) -> Span:
        return Span(self, name)

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] += amount

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and span count per span name."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        self_time: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        for span in self.spans:
            self_time[span.name] += span.duration - covered[span.id]
            count[span.name] += 1
        return self_time, count

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "request": s.request,
                    "start": s.start, "end": s.end,
                }) + "\n")


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


class NullTracer:
    enabled = False
    request = None
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span

    def add(self, counter: str, amount: float) -> None:
        pass
