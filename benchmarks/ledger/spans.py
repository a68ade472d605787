"""In-memory spans around the benchmark's calls into each layer.

A span is ``{name, start, end, parent, workload}``: ``name`` is the
layer (a module name of the program), ``parent`` the index of the
enclosing span or ``None``.  Spans are recorded only in the traced pass,
kept in memory, and written out once when the pass ends.  A layer's
*self time* is its spans' duration minus the part their direct children
cover, so a span that wraps calls into two layers charges each layer
only its own share.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

__all__ = ["Tracer", "self_times"]


class Tracer:
    """Records nested spans for one workload's traced pass."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        """Open a span; the enclosing open span (if any) is its parent."""
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Run ``fn`` inside a span; return its result and the span's duration."""
        with self.span(name) as record:
            result = fn()
        return result, record["end"] - record["start"]

    def layer_seconds(self, layers: Iterable[str]) -> dict[str, float]:
        """``{layer + "_s": self time}`` for each named layer that has spans."""
        own = self_times(self.spans)
        return {f"{layer}_s": own[layer] for layer in layers if layer in own}

    def write_json(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, indent=1) + "\n")


def self_times(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Per span name: summed duration minus direct children's duration."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    totals: dict[str, float] = {}
    for span, seconds in zip(spans, own):
        totals[span["name"]] = totals.get(span["name"], 0.0) + seconds
    return totals
