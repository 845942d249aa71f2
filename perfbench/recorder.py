"""Counters and spans recorded by the benchmark around calls into quadtile.

The library itself is not instrumented: every span starts and ends in the
benchmark's own code, around one call into a layer's public function.  A
span is ``(name, start, end, parent, op)``; ``parent`` is the index of the
enclosing span (the op's root span) and ``op`` is the id shared by every
span of one op.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Any, Callable, NamedTuple

ROOT = "bench.op"


class Op(NamedTuple):
    """One unit of work: ``run(rec)`` calls the library and returns a result,
    ``check(result)`` returns the golden-check failures (empty when right)."""

    key: str
    run: Callable[["Recorder"], Any]
    check: Callable[[Any], list[str]]


class Recorder:
    """Per-batch counters, plus spans when ``trace`` is set."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self._parent: int | None = None
        self._op = -1

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn``; when tracing, record a span named ``name`` around it."""
        if not self.trace:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(
                (name, start, time.perf_counter(), self._parent, self._op))

    def open_op(self) -> None:
        """Start the root span of the next op, when tracing."""
        if not self.trace:
            return
        self._op += 1
        self._parent = len(self.spans)
        self.spans.append((ROOT, time.perf_counter(), 0.0, None, self._op))

    def close_op(self) -> None:
        if not self.trace:
            return
        name, start, _, parent, op = self.spans[self._parent]
        self.spans[self._parent] = (name, start, time.perf_counter(), parent, op)
        self._parent = None


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_metrics(spans, batches: int,
                  scale: Callable[[float, float], float]) -> dict[str, float]:
    """Per-batch means: ``<span>.busy_s``, ``<span>.calls`` and
    ``<layer>.self_s``, where the layer is the span name's first part.
    ``scale(start, end)`` converts a span's seconds to reported seconds."""
    busy: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    own: Counter[str] = Counter()
    for span, self_s in zip(spans, self_times(spans)):
        name, start, end = span[0], span[1], span[2]
        factor = scale(start, end)
        if name != ROOT:
            busy[name] += (end - start) * factor
            calls[name] += 1
        own[name.split(".")[0]] += self_s * factor
    out: dict[str, float] = {}
    for name in busy:
        out[f"{name}.busy_s"] = busy[name] / batches
        out[f"{name}.calls"] = calls[name] // batches
    for layer, total in own.items():
        out[f"{layer}.self_s"] = total / batches
    return out
