"""In-memory spans recorded around the benchmark's calls into chio.

A span has a name, a start and end (``time.perf_counter`` seconds), the id
of the span that was open when it started, and the work counts the caller
attaches to it.  Spans stay in memory; the caller writes them out when
the run ends.  :data:`OFF` is the tracer used for untraced
runs: its spans record nothing and cost one context-manager entry.
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    """Collects nested spans in the order they start."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts: int):
        """Record one span; the caller may add counts to the yielded dict."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": dict(counts),
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def totals(self, name: str) -> tuple[float, dict[str, int], int]:
        """(busy seconds, summed counts, span count) over spans named ``name``."""
        busy = 0.0
        counts: dict[str, int] = {}
        calls = 0
        for record in self.spans:
            if record["name"] != name:
                continue
            calls += 1
            busy += record["end"] - record["start"]
            for key, value in record["counts"].items():
                counts[key] = counts.get(key, 0) + value
        return busy, counts, calls


class _Off:
    """Tracer stand-in for untraced runs."""

    @contextlib.contextmanager
    def span(self, name: str, **counts: int):
        yield {}


OFF = _Off()
