"""In-memory span recorder for the traced benchmark run.

A span records a name, start and end times, the index of the span that was
open when it started (its parent) and a group id shared by every span of one
replicate or command cycle.  Spans stay in memory until the run writes them
out.  Counts recorded next to the spans are computed from array shapes and
file sizes, not measured.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "group", "index")

    def __init__(self, tracer, name, group):
        self.tracer = tracer
        self.name = name
        self.group = group

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        group = self.group if self.group is not None else t.spans[parent]["group"]
        self.index = len(t.spans)
        t.spans.append(
            {"name": self.name, "start": perf_counter(), "end": None, "parent": parent, "group": group}
        )
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index]["end"] = perf_counter()
        t._stack.pop()
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Tracer:
    """Records spans and counts; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[object, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []

    def span(self, name: str, group=None):
        """Context manager for one span; a root span must name its group."""
        return _Span(self, name, group) if self.enabled else _NO_SPAN

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def add(self, name: str, value: float, group=None) -> None:
        """Add a count to a group, by default that of the innermost open span."""
        if self.enabled:
            if group is None:
                group = self.spans[self._stack[-1]]["group"]
            self.counts[group][name] += value

    def self_times(self) -> dict[object, dict[str, float]]:
        """Per group, the summed self time of each span name: its duration
        minus the part its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[object, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s, covered in zip(self.spans, child_time):
            out[s["group"]][s["name"]] += (s["end"] - s["start"]) - covered
        return out

    def durations(self, name: str) -> dict[object, float]:
        """Per group, the summed wall time of the spans with this name."""
        out: dict[object, float] = defaultdict(float)
        for s in self.spans:
            if s["name"] == name:
                out[s["group"]] += s["end"] - s["start"]
        return out
