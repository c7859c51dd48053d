"""``tests/ab.py``'s summary of two fixed run lists, with no bench run."""

import pytest

from ab import summary


def runs(*rows):
    return [{"metrics": {name: {"value": v} for name, v in row.items()}} for row in rows]


def test_the_summary_pairs_runs_and_counts_wins_by_direction():
    parent = runs(
        {"w/op_p50_ms": 10, "w/work_per_s": 100, "w/other": 1},
        {"w/op_p50_ms": 10, "w/work_per_s": 100, "w/other": 1},
        {"w/op_p50_ms": 20, "w/work_per_s": 50, "w/other": 1},
    )
    head = runs(
        {"w/op_p50_ms": 9, "w/work_per_s": 110, "w/other": 2},
        {"w/op_p50_ms": 12, "w/work_per_s": 100, "w/other": 2},
        {"w/op_p50_ms": 16, "w/work_per_s": 40, "w/other": 2},
    )
    out = summary(parent, head, {"op_p50_ms": "lower", "work_per_s": "higher"})
    assert out["w/op_p50_ms"] == pytest.approx({"median": 0.9, "q1": 0.85, "q3": 1.05, "wins": 2, "pairs": 3})
    assert out["w/work_per_s"] == pytest.approx({"median": 1.0, "q1": 0.9, "q3": 1.05, "wins": 1, "pairs": 3})
    assert out["w/other"] == pytest.approx({"median": 2.0, "q1": 2.0, "q3": 2.0, "wins": 0, "pairs": 3})
    assert summary(parent[:1], head[:1], {})["w/op_p50_ms"] == pytest.approx(
        {"median": 0.9, "q1": 0.9, "q3": 0.9, "wins": 0, "pairs": 1}
    )
