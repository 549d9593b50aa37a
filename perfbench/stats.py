"""The benchmark's arithmetic: medians, tails, interval unions, ledger.

Pure functions over numbers, kept apart from the harness so the tests
in ``perfbench/tests`` can pin them down.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence

Interval = tuple[float, float]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median, third quartile (``statistics.quantiles``
    with its default exclusive method, as run-to-run spread is judged)."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: Sequence[float], beyond: int = 10) -> tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Nearest rank: the sample at 1-based rank ``r = n - beyond`` has
    ``beyond`` samples after it in sorted order and sits at percentile
    ``100 * r / n``.  Returns ``(value, percentile, n)``.  With ``n <=
    beyond`` no percentile qualifies; the maximum is returned at
    percentile 100 so the caller can still report (and flag) it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= beyond:
        return float(ordered[-1]), 100.0, n
    r = n - beyond
    return float(ordered[r - 1]), 100.0 * r / n, n


def union(intervals: Iterable[Interval]) -> list[Interval]:
    """Merge overlapping or touching intervals into disjoint ones."""
    out: list[list[float]] = []
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]


def covered(intervals: Iterable[Interval], window: Interval | None = None) -> float:
    """Length of the union of ``intervals``, clipped to ``window``."""
    total = 0.0
    for a, b in union(intervals):
        if window is not None:
            a, b = max(a, window[0]), min(b, window[1])
        total += max(0.0, b - a)
    return total


def self_time(span: Interval, children: Iterable[Interval]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (span[1] - span[0]) - covered(children, span)


def unaccounted_frac(
    windows: dict[object, Interval], spans: dict[object, list[Interval]]
) -> float:
    """Share of thread time inside ``windows`` that no span covers.

    ``windows`` maps a thread to the interval it is accounted over,
    ``spans`` the same thread to every traced span it ran.  Nested or
    overlapping spans count once (their union).
    """
    total = sum(max(0.0, b - a) for a, b in windows.values())
    if total <= 0:
        return 0.0
    hit = sum(covered(spans.get(t, ()), w) for t, w in windows.items())
    return (total - hit) / total


def slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``ys`` against ``xs`` (0 when undefined)."""
    n = len(xs)
    if n < 2:
        return 0.0
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
