"""In-memory span recorder for the traced benchmark run.

Spans are taken in the benchmark's own code, around calls into the
program's public functions; the program itself is not instrumented.
Each span has a name, start, end, parent span and free-form attributes
(rows, bytes, partitions ...). Spans stay in memory and are written out
as JSON lines once the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record one span; yields its attribute dict so the body can add
        counts it only knows at the end. With tracing off it records
        nothing and yields a throwaway dict."""
        if not self.enabled:
            yield {}
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "attrs": dict(attrs)}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str, header: dict) -> None:
        """One JSON line per span, each with its self time: duration
        minus what its children cover (children never overlap: the
        driver is single-threaded)."""
        child_s: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + duration(s)
        with open(path, "w") as f:
            f.write(json.dumps({"header": header}) + "\n")
            for s in self.spans:
                rec = dict(s, self_s=duration(s) - child_s.get(s["id"], 0.0))
                f.write(json.dumps(rec, default=str) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]
