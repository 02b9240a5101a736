"""In-memory span recorder for the traced benchmark run.

A span has a name, start and end (perf_counter seconds), the id of the
span that was open when it started, and the id of the repetition (run)
it belongs to.  Spans stay in memory and are written out once, when the
run ends.  Untraced runs never create a Tracer.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "run": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span called name."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    @staticmethod
    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def self_time(self, span: dict) -> float:
        """Duration minus the durations of the span's direct children."""
        children = sum(self.duration(s) for s in self.spans if s["parent"] == span["id"])
        return self.duration(span) - children

    def per_run(self, name: str, value=None) -> list[float]:
        """value(span) summed over the spans called name, one entry per run."""
        value = value or self.duration
        totals: dict[int, float] = {}
        for s in self.named(name):
            totals[s["run"]] = totals.get(s["run"], 0.0) + value(s)
        return [totals[r] for r in sorted(totals)]

    def median_per_run(self, name: str, value=None) -> float:
        vals = self.per_run(name, value)
        return statistics.median(vals) if vals else 0.0

    def median_per_call(self, name: str) -> float:
        vals = [self.duration(s) for s in self.named(name)]
        return statistics.median(vals) if vals else 0.0

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
