"""In-memory spans recorded around the benchmark's calls into the program.

A span holds its name, start, end, parent span and the operation id that
every span of one operation shares. Spans stay in memory until the run
ends; nothing is written while the clock runs.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._open[-1] if self._open else None,
            "op": self.op_id,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[int, dict[tuple[str, str], float]]:
        """Per operation id: (root span name, span name) -> summed self time.

        A span's self time is its duration minus its children's durations,
        so the self times under one root add up to the root's duration.
        """
        child_time: dict[int, float] = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[int, dict[tuple[str, str], float]] = defaultdict(lambda: defaultdict(float))
        for idx, rec in enumerate(self.spans):
            root = idx
            while self.spans[root]["parent"] is not None:
                root = self.spans[root]["parent"]
            own = rec["end"] - rec["start"] - child_time[idx]
            out[rec["op"]][(self.spans[root]["name"], rec["name"])] += own
        return out


class NullTracer:
    """Tracing off: every span is one shared no-op context."""

    enabled = False

    def __init__(self) -> None:
        self.op_id: int | None = None
        self._noop = contextlib.nullcontext()

    def span(self, name: str):
        return self._noop
