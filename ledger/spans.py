"""In-memory spans recorded by the ledger around its calls into ``repro``.

A span is ``{name, start, end, parent}`` with times from
``time.perf_counter`` relative to the tracer's creation; ``parent`` is the
index of the enclosing span (``None`` for the root).  A layer's *self time*
is its span's duration minus the part its child spans cover.  Spans live in a
list until the run ends; the driver writes them out afterwards.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Records nested spans; one instance per repeat of one workload."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._open: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent: Optional[int] = self._open[-1] if self._open else None
        record = {"name": name, "start": 0.0, "end": 0.0, "parent": parent}
        self.spans.append(record)
        self._open.append(index)
        record["start"] = time.perf_counter() - self._origin
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._open.pop()

    def seconds(self, name: str) -> float:
        """Total duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Self time per span name: duration minus the children's durations."""
    own = [s["end"] - s["start"] for s in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    totals: Dict[str, float] = {}
    for span, seconds in zip(spans, own, strict=True):
        totals[span["name"]] = totals.get(span["name"], 0.0) + seconds
    return totals
