"""In-memory spans for the traced run: one span (name, start, end, parent)
around each public call into a layer, with the counts taken at that call.
Spans stay in memory until the process hands them over at its end."""
from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts) -> Iterator[dict]:
        """Record a span; the caller may add counts to the yielded dict."""
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None, "counts": dict(counts)}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **counts):
        with self.span(name, **counts):
            return fn(*args)
