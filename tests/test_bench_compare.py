"""The summary that tools/bench_compare.py writes for each workload."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_compare import iqrs, medians, pairs_won  # noqa: E402


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
