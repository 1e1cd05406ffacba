"""In-memory spans recorded around calls into the profiler's layers.

A span is one timed call: a name (the layer), the unit it belongs to
(one program in one round), start and end in ``perf_counter_ns``, and the
span that was open on the same thread when it began (its parent).
Spans stay in memory while the benchmark runs and are written out once
at the end, so recording one costs two clock reads and a list append.

A layer's *self time* is its span's duration minus the part covered by
its children.  Children on one thread nest inside their parent and do
not overlap one another, so that part is the sum of their durations.
A span opened on a background thread has no parent there; it runs
concurrently with its unit's root span, so it is left out of self
times and coverage and reported on its own.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator

#: Names of the spans that enclose one whole unit of work.  Their self
#: time is benchmark glue, not a layer, and they are the denominator of
#: trace coverage.
ROOT_SPANS = ("program",)


class Tracer:
    """Collects spans from any number of threads."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, unit: str) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else -1
        record = {
            "name": name,
            "unit": unit,
            "parent": parent,
            "thread": threading.get_ident(),
            "start_ns": time.perf_counter_ns(),
            "end_ns": 0,
        }
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            stack.pop()

    def wrap(self, fn, name: str, unit: str):
        """``fn`` with every call recorded as a span."""

        def traced(*args, **kwargs):
            with self.span(name, unit):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> list[tuple[dict, int]]:
        """Every span nested under a root span (or a root itself) with
        its self time in nanoseconds."""
        covered = [0] * len(self.spans)
        nested = [False] * len(self.spans)
        for i, record in enumerate(self.spans):
            parent = record["parent"]
            nested[i] = record["name"] in ROOT_SPANS or (parent >= 0 and nested[parent])
            if parent >= 0:
                covered[parent] += record["end_ns"] - record["start_ns"]
        return [
            (record, record["end_ns"] - record["start_ns"] - covered[i])
            for i, record in enumerate(self.spans)
            if nested[i]
        ]

    def layer_ms(self) -> dict[str, dict[str, float]]:
        """``{unit: {layer: self-time ms}}``; root spans report the
        unit's whole duration under ``"total"`` and their own self time
        under ``"other"``."""
        out: dict[str, dict[str, float]] = {}
        for record, self_ns in self.self_times():
            row = out.setdefault(record["unit"], {})
            if record["name"] in ROOT_SPANS:
                row["total"] = row.get("total", 0.0) + (
                    record["end_ns"] - record["start_ns"]
                ) / 1e6
                row["other"] = row.get("other", 0.0) + self_ns / 1e6
            else:
                row[record["name"]] = row.get(record["name"], 0.0) + self_ns / 1e6
        return out

    def coverage(self) -> float:
        """Layer self time summed, as a share of the root spans' time."""
        total = sum(
            r["end_ns"] - r["start_ns"] for r in self.spans if r["name"] in ROOT_SPANS
        )
        layers = sum(
            self_ns for r, self_ns in self.self_times() if r["name"] not in ROOT_SPANS
        )
        return layers / total if total else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str, unit: str):  # noqa: ARG002
        return self._null

    def wrap(self, fn, name: str, unit: str):  # noqa: ARG002
        return fn
