"""The pair summariser of ``scripts/bench_pairs.py`` on synthetic runs."""

import pytest

from scripts.bench_pairs import _seeds, _summary

BETTER = {"windows_per_s": "higher", "wall_s": "lower"}


def run(side, pair, metrics, spans=None, seed=1):
    out = {"workload": "desk-train", "seed": seed, "pair": pair, "side": side,
           "result": {"metrics": {k: {"value": v} for k, v in metrics.items()}}}
    if spans is not None:
        out["span_self_s"] = spans
    return out


def test_seeds_ranges_and_lists():
    assert _seeds("301-304") == [301, 302, 303, 304]
    assert _seeds("1,4,9") == [1, 4, 9]
    assert _seeds("1-3,7") == [1, 2, 3, 7]
    assert _seeds("5") == [5]


def test_wins_follow_each_metric_direction():
    runs = []  # three pairs on one seed
    for pair, (p_rate, c_rate, p_wall, c_wall) in enumerate(
        [(100, 120, 10.0, 9.0), (100, 90, 10.0, 11.0), (100, 130, 10.0, 8.0)]
    ):
        runs += [run("parent", pair, {"windows_per_s": p_rate, "wall_s": p_wall}),
                 run("change", pair, {"windows_per_s": c_rate, "wall_s": c_wall})]
    summary, one_sided = _summary(runs, BETTER)
    rate, wall = summary["desk-train"]["windows_per_s"], summary["desk-train"]["wall_s"]
    assert (rate["wins"], rate["pairs"]) == (2, 3)
    assert (wall["wins"], wall["pairs"]) == (2, 3)
    assert rate["median_gain"] == 20  # higher is better: 120 - 100
    assert wall["median_gain"] == 1.0  # lower is better: 10 - 9
    assert one_sided == {}


def test_parent_iqr_is_the_parent_quartile_spread():
    runs = []
    for pair, value in enumerate([1.0, 2.0, 3.0, 4.0, 5.0]):
        runs += [run("parent", pair, {"wall_s": value}, seed=pair),
                 run("change", pair, {"wall_s": value / 2}, seed=pair)]
    entry = _summary(runs, BETTER)[0]["desk-train"]["wall_s"]
    # statistics.quantiles' default (exclusive) method: 1.5 and 4.5
    assert entry["parent"] == {"median": 3.0, "q1": 1.5, "q3": 4.5}
    assert entry["parent_iqr"] == pytest.approx(3.0)
    assert entry["change"]["median"] == 1.5
    assert entry["wins"] == 5


def test_one_sided_span_is_listed_not_compared():
    runs = [
        run("parent", 0, {"wall_s": 2.0}, {"ctcm.msff": 0.5, "encoder": 1.0}),
        run("change", 0, {"wall_s": 1.0}, {"encoder": 0.9, "ctcm.new": 0.1}),
    ]
    summary, one_sided = _summary(runs, BETTER)
    assert set(summary["desk-train"]) == {"wall_s", "span_self_s:encoder"}
    assert summary["desk-train"]["span_self_s:encoder"]["wins"] == 1
    assert one_sided == {"desk-train": {"parent": ["span_self_s:ctcm.msff"],
                                        "change": ["span_self_s:ctcm.new"]}}
