"""The summary that tools/bench_compare.py writes for each workload."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_compare import iqrs, medians, pairs_won, verdicts  # noqa: E402


def test_pairs_won_follow_each_metric_direction_and_ties_win_nothing():
    rows = [
        {"base": {"round_s": 1.0, "items_per_s": 5.0}, "change": {"round_s": 0.5, "items_per_s": 5.0}},
        {"base": {"round_s": 1.0, "items_per_s": 5.0}, "change": {"round_s": 1.0, "items_per_s": 6.0}},
        {"base": {"round_s": 1.0, "items_per_s": 5.0}, "change": {"round_s": 2.0, "items_per_s": 4.0}},
    ]
    better = {"round_s": "lower", "items_per_s": "higher", "peak_rss_mb": "lower"}
    assert pairs_won(rows, better) == {"round_s": 1, "items_per_s": 1}


def test_medians_and_iqrs_of_ten_runs():
    runs = [{"correct": True, "round_s": float(v)} for v in range(1, 11)]
    assert medians(runs) == {"round_s": 5.5}
    # statistics.quantiles' exclusive method: quartiles at 2.75 and 8.25
    assert iqrs(runs) == {"round_s": 5.5}


def rows_of(base, change, metric="round_s"):
    return [{"base": {metric: b}, "change": {metric: c}} for b, c in zip(base, change)]


STEADY = [1.0, 1.0, 1.01, 0.99, 1.0, 1.0, 1.02, 0.98, 1.0, 1.0]  # median 1.0, IQR 0.005


def test_verdict_improved_needs_nine_pairs_and_a_gap_wider_than_the_base_iqr():
    e2e = {"round_s": ("lower", 0.25)}
    faster = [v - 0.1 for v in STEADY]
    assert verdicts(rows_of(STEADY, faster), e2e) == {"round_s": "improved"}
    # eight wins of ten are not enough, however large the gap
    assert verdicts(rows_of(STEADY, faster[:8] + [2.0, 2.0]), e2e) == {"round_s": "within bound"}
    # ten wins by less than the base IQR are not a gain
    assert verdicts(rows_of(STEADY, [v - 0.001 for v in STEADY]), e2e) == {"round_s": "within bound"}
    e2e = {"items_per_s": ("higher", 0.25)}
    more = [10 * v + 1 for v in STEADY]
    assert verdicts(rows_of([10 * v for v in STEADY], more, "items_per_s"), e2e) == {"items_per_s": "improved"}


def test_verdict_unresolved_when_the_base_spread_is_wider_than_the_bound():
    noisy = [0.3, 0.3, 0.3, 0.3, 0.5, 0.5, 0.55, 0.55, 0.55, 0.55]  # IQR 0.25, median 0.5
    e2e = {"round_s": ("lower", 0.25)}
    assert verdicts(rows_of(noisy, [v * 1.4 for v in noisy]), e2e) == {"round_s": "unresolved"}


def test_verdict_worse_beyond_the_bound_and_within_it_otherwise():
    e2e = {"round_s": ("lower", 0.25), "out_atoms": ("lower", 0.05)}
    rows = [
        {"base": {"round_s": b, "out_atoms": 100}, "change": {"round_s": b * 1.3, "out_atoms": 104}}
        for b in STEADY
    ]
    assert verdicts(rows, e2e) == {"round_s": "worse", "out_atoms": "within bound"}
    e2e = {"items_per_s": ("higher", 0.1)}
    base = [10 * v for v in STEADY]
    assert verdicts(rows_of(base, [v * 0.8 for v in base], "items_per_s"), e2e) == {"items_per_s": "worse"}
    assert verdicts(rows_of(base, [v * 0.95 for v in base], "items_per_s"), e2e) == {"items_per_s": "within bound"}
