"""Order statistics and span arithmetic used by the benchmark."""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples: list[float], q: float) -> float | None:
    """The ``q``-th percentile (nearest rank), or None when fewer than
    ``MIN_BEYOND`` samples lie strictly beyond its rank."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100 * n))  # 1-based
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def median(samples: list[float]) -> float:
    return statistics.median(samples)


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[tuple]) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover.

    A span is ``(name, start, end, parent)``, where ``parent`` indexes into
    ``spans`` or is -1; further fields are ignored.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, *_) in enumerate(spans):
        kids = [(max(a, start), min(b, end)) for a, b in children.get(i, ()) if b > start and a < end]
        out.append((end - start) - covered(kids))
    return out
