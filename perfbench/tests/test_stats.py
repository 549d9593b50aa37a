"""Tests for the benchmark's arithmetic.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    value, pct, n = stats.tail(values)
    assert n == 100
    assert value == 90
    assert pct == pytest.approx(90.0)
    assert sum(v > value for v in values) == 10


def test_tail_ignores_input_order_and_counts_ties_as_samples():
    values = [5.0] * 15 + [1.0, 2.0, 3.0]
    value, pct, n = stats.tail(list(reversed(values)))
    assert n == 18
    assert value == 5.0  # rank 8 of 18 is already in the run of ties
    assert pct == pytest.approx(100.0 * 8 / 18)


def test_tail_is_highest_qualifying_percentile():
    values = [float(v) for v in range(37)]
    value, pct, _ = stats.tail(values)
    # One rank higher would leave only nine samples beyond.
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * 27 / 37)


def test_tail_with_too_few_samples_reports_max():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        stats.tail([])


def test_quartiles_match_statistics_quantiles():
    values = [0.31, 0.29, 0.35, 0.30, 0.33, 0.28, 0.40, 0.32, 0.30, 0.31]
    q1, q2, q3 = stats.quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert q2 == stats.median(values)
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_union_merges_overlapping_and_touching():
    assert stats.union([(3, 4), (0, 1), (0.5, 2), (2, 2.5), (5, 5)]) == [
        (0, 2.5),
        (3, 4),
    ]


def test_covered_clips_to_window():
    ivs = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]
    assert stats.covered(ivs) == pytest.approx(4.0)
    assert stats.covered(ivs, (2.5, 5.5)) == pytest.approx(1.0)


def test_self_time_subtracts_union_of_children():
    span = (0.0, 10.0)
    children = [(1.0, 4.0), (3.0, 5.0), (9.0, 12.0)]  # last one overhangs
    assert stats.self_time(span, children) == pytest.approx(10 - 4 - 1)
    assert stats.self_time(span, []) == pytest.approx(10.0)


def test_unaccounted_frac():
    windows = {"w0": (0.0, 10.0), "w1": (0.0, 10.0)}
    spans = {
        "w0": [(0.0, 4.0), (2.0, 6.0), (8.0, 12.0)],  # covers 8 of 10
        "w1": [(1.0, 10.0)],  # covers 9 of 10
    }
    assert stats.unaccounted_frac(windows, spans) == pytest.approx(3 / 20)
    assert stats.unaccounted_frac({"w": (0.0, 1.0)}, {}) == pytest.approx(1.0)
    assert stats.unaccounted_frac({}, {}) == 0.0


def test_slope():
    xs = [0, 1, 2, 3, 4]
    assert stats.slope(xs, [2 * x + 7 for x in xs]) == pytest.approx(2.0)
    assert stats.slope([1], [5]) == 0.0
    assert stats.slope([1, 1], [2, 3]) == 0.0
