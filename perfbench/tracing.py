"""In-memory span recorder for the traced run.

A span is (name, start, end, parent, iteration); ``parent`` is the index
of the enclosing span or -1. Spans stay in memory and are written out once
when the run ends. With tracing off the benchmark uses :data:`OFF`, whose
``span`` is a shared no-op context.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.iteration = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.iteration]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def medians(self) -> dict[str, float]:
        """Per span name: the median over iterations of the summed span
        durations in that iteration."""
        per_iter: dict[str, dict[int, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for name, start, end, _, iteration in self.spans:
            per_iter[name][iteration] += end - start
        return {
            name: statistics.median(by_iter.values())
            for name, by_iter in per_iter.items()
        }

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "iteration")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, s)) for s in self.spans], handle)


class _Off:
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


OFF = _Off()
