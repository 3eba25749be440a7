"""In-memory spans recorded around calls into the library's public functions.

A span is (id, name, start, end, parent).  Spans are kept in a list while
the phase runs and written out as JSON lines when it ends, so recording
costs two clock reads and one tuple per call.  A span's self time is its
duration minus the time its child spans cover.
"""

import itertools
import json
import time
from collections import defaultdict


class Tracer:
    """Records spans; `wrap` returns a traced stand-in for a function."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, name, start, end, parent))

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and the longest call."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for span_id, name, start, end, _ in self.spans:
            dur = end - start
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_time[span_id]
            row["max_s"] = max(row["max_s"], dur)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "trace": self.trace_id, "id": span_id, "name": name,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")
