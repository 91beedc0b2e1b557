"""Benchmark-owned spans, self-time arithmetic and the percentile rule.

Spans are recorded from outside the program, around calls into each
layer's public functions, and kept in memory until the pass ends.  The
untraced passes run the same driver code against :data:`NULL_TRACER`, whose
spans are one shared no-op context manager.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "Tracer",
    "NULL_TRACER",
    "self_times",
    "durations",
    "tail_percentile",
    "percentile",
    "median",
]


class _Span:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self._index = len(tracer.spans)
        parent = tracer._open[-1] if tracer._open else -1
        tracer._open.append(self._index)
        # [name, start, end, parent index, tick id]
        tracer.spans.append([self._name, tracer.clock(), 0.0, parent, tracer.tick])
        return self

    def __exit__(self, *exc_info) -> None:
        tracer = self._tracer
        tracer.spans[self._index][2] = tracer.clock()
        tracer._open.pop()


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


class Tracer:
    """In-memory span recorder; spans of one tick share ``tick``."""

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self._open: List[int] = []
        self.tick = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def write(self, path) -> None:
        """One JSON object per span: name, start, end, parent, tick."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, tick) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": parent, "tick": tick}
                    )
                )
                handle.write("\n")


class _NullTracer:
    enabled = False
    tick = -1
    spans: Sequence[list] = ()
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span


NULL_TRACER = _NullTracer()


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Per span name: total duration minus what direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: Dict[str, float] = {}
    for (name, *_), seconds in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + seconds
    return totals


def durations(spans: Iterable[Sequence], name: str) -> List[float]:
    return [end - start for span_name, start, end, _, _ in spans if span_name == name]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 1])."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def median(samples: Sequence[float]) -> float:
    """``statistics.median``, 0.0 for no samples (a pass without reads)."""
    return statistics.median(samples) if samples else 0.0


#: Candidate tail quantiles, highest first.
_TAILS = (0.99, 0.95, 0.9, 0.75)


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """``(q, value)`` at the highest percentile with >= 10 samples beyond it.

    1 000 samples support p99, 200 p95, 100 p90, 40 p75; fewer fall back to
    the median.
    """
    count = len(samples)
    for q in _TAILS:
        if count * (1.0 - q) >= 10.0 - 1e-9:
            return q, percentile(samples, q)
    return 0.5, median(samples)
