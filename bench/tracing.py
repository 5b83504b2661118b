"""Spans around the benchmark's own calls into the library's layers.

A span records its name, start, end, the span that caused it and the
request it belongs to.  Spans stay in memory while the run measures and
are written out once, when it ends.  The untraced run uses NullTracer,
whose span is a shared no-op, so end-to-end timings carry no tracing.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "name", "attrs", "start", "id", "parent")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        tr = self.tracer
        self.id = len(tr.spans) + len(tr.stack)
        self.parent = tr.stack[-1].id if tr.stack else None
        tr.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        request = tr.stack[0].id if tr.stack else self.id
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        tr.spans.append((self.id, self.parent, request, self.name,
                         self.start, end, self.attrs))
        return False


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[_Span] = []

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs)

    def write(self, path):
        """One JSON line per span, in the order the spans ended."""
        with open(path, "w") as fh:
            for sid, parent, request, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "request": request, "name": name,
                                     "start_s": start, "dur_us": (end - start) * 1e6,
                                     **attrs}) + "\n")


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


class NullTracer:
    _SPAN = _NullSpan()

    def span(self, name: str, **attrs) -> _NullSpan:
        return self._SPAN


def durations(spans: list[tuple]) -> dict[str, list[float]]:
    """Seconds spent in each span name, one entry per call."""
    out = defaultdict(list)
    for _, _, _, name, start, end, _ in spans:
        out[name].append(end - start)
    return out


def layer_stats(times: list[float]) -> tuple[int, float, float]:
    """(calls, total ms, median us) of one span name; zeros when never called."""
    if not times:
        return 0, 0.0, 0.0
    return (len(times), sum(times) * 1e3,
            statistics.median(times) * 1e6)
