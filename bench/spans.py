"""Spans and work counters recorded by the benchmark around calls into clawlab.

A span is (name, case, start, end). Each case is the parent span of the
calls it makes; a call span is named ``<layer>.<function>`` after the
clawlab module and function it wraps. Call spans never nest, so a layer's
self time is the sum of its call spans, and what is left of a case span is
the benchmark's own glue code. Counters are recorded in every run; spans
only when tracing is on, so an untraced run pays one no-op context manager
per call.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

_NO_SPAN = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.counters: Counter = Counter()
        self.spans: list[tuple[str, int | None, float, float]] = []
        self._case: int | None = None

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def span(self, name: str):
        """Context manager timing one call into a clawlab layer."""
        if not self.enabled:
            return _NO_SPAN
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, self._case, start, time.perf_counter()))

    @contextlib.contextmanager
    def case(self, index: int):
        """Parent span of everything the index-th case of a loop does."""
        self._case = index
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._case = None
            if self.enabled:
                self.spans.append(("case", index, start, end))

    def call_seconds(self, in_cases: bool = True) -> dict[str, float]:
        """Summed duration of the call spans inside cases (or outside them)."""
        out: dict[str, float] = defaultdict(float)
        for name, case, start, end in self.spans:
            if name != "case" and (case is not None) == in_cases:
                out[name] += end - start
        return dict(out)

    def case_breakdown(self) -> list[tuple[int, float, float]]:
        """(case, case span seconds, summed call span seconds) per case."""
        whole: dict[int, float] = {}
        calls: dict[int, float] = defaultdict(float)
        for name, case, start, end in self.spans:
            if case is None:
                continue
            if name == "case":
                whole[case] = end - start
            else:
                calls[case] += end - start
        return [(i, whole[i], calls[i]) for i in sorted(whole)]
