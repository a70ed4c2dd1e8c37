"""The pair summariser of ``scripts/bench_pairs.py`` on synthetic runs."""

import json
import subprocess

import pytest

from scripts.bench_pairs import REPORT_BETTER, _not_summarised, _seeds, _summary, _verdict, main

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


def test_report_entries_are_summarised_in_their_direction():
    runs = []
    for pair, (p_step, c_step, p_rate, c_rate) in enumerate([(7.0, 6.0, 1.1, 1.2),
                                                             (6.5, 6.6, 1.0, 1.3)]):
        for side, step, rate in (("parent", p_step, p_rate), ("change", c_step, c_rate)):
            out = run(side, pair, {"wall_s": 10.0})
            out["metadata"] = {"report": {
                "step_p50_s": {"value": step}, "train_windows_per_s": {"value": rate},
                "wall_s": {"value": 10.0}, "new_thing": {"value": 1.0}}}
            runs.append(out)
    summary, one_sided = _summary(runs, {**BETTER, **{f"report:{k}": v
                                                      for k, v in REPORT_BETTER.items()}})
    step = summary["desk-train"]["report:step_p50_s"]
    rate = summary["desk-train"]["report:train_windows_per_s"]
    assert (step["wins"], rate["wins"]) == (1, 2)  # lower and higher is better
    assert step["median_gain"] == pytest.approx(6.75 - 6.3)
    # a name with no direction is neither compared nor an error; one the
    # result line carries is compared there only
    assert "report:new_thing" not in summary["desk-train"]
    assert "report:wall_s" not in summary["desk-train"]
    assert one_sided == {}
    assert _not_summarised(runs) == ["new_thing"]


def _pairs(name, parent, change):
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        runs += [run("parent", pair, {name: p}, seed=pair), run("change", pair, {name: c}, seed=pair)]
    return runs


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # IQR ~0.035


@pytest.mark.parametrize(
    "name, change, verdict",
    [
        # 10/10 wins, median gain 0.3 > IQR
        ("wall_s", [v - 0.3 for v in PARENT], "gain"),
        # 9/10 wins is enough
        ("wall_s", [v - 0.3 for v in PARENT[:9]] + [PARENT[9] + 0.01], "gain"),
        # 8/10 wins is not, however large the median gain
        ("wall_s", [v - 0.3 for v in PARENT[:8]] + [v + 0.01 for v in PARENT[8:]], "within_bound"),
        # 10/10 wins but a median gain inside the parent's IQR
        ("wall_s", [v - 0.01 for v in PARENT], "within_bound"),
        # 30% slower against a 25% bound
        ("wall_s", [v * 1.3 for v in PARENT], "regression"),
        # 20% slower is within it
        ("wall_s", [v * 1.2 for v in PARENT], "within_bound"),
        # higher is better: 30% fewer windows a second is a regression
        ("windows_per_s", [v * 0.7 for v in PARENT], "regression"),
        ("windows_per_s", [v * 1.3 for v in PARENT], "gain"),
    ],
)
def test_end_to_end_verdict(name, change, verdict):
    summary, _ = _summary(_pairs(name, PARENT, change), BETTER, {name: 0.25})
    assert summary["desk-train"][name]["verdict"] == verdict


def test_verdict_only_for_bounded_metrics():
    runs = _pairs("wall_s", PARENT, [v - 0.3 for v in PARENT])
    assert "verdict" not in _summary(runs, BETTER)[0]["desk-train"]["wall_s"]
    assert "verdict" not in _summary(runs, BETTER, {"setup_s": 0.25})[0]["desk-train"]["wall_s"]


def test_verdict_bound_is_relative_to_the_parent_median():
    entry = {"wins": 0, "pairs": 10, "median_gain": -5.0, "parent_iqr": 1.0,
             "parent": {"median": 100.0}}
    assert _verdict(entry, 0.05) == "within_bound"  # 5 is not more than 5% of 100
    assert _verdict({**entry, "median_gain": -5.01}, 0.05) == "regression"


STUB_RUN = '''\
import json, pathlib, sys
count = pathlib.Path("calls")
n = int(count.read_text()) + 1 if count.exists() else 1
count.write_text(str(n))
seed = int(sys.argv[sys.argv.index("--seed") + 1])
meta = {"nproc": 1, "numpy": "x", "python": "x", "blas": "x"}
print(json.dumps({"meta": meta, "seed": seed, "call": n}))
# the first call of a checkout is its warm-up: a value no pair may see
print(json.dumps({"metrics": {"wall_s": {"value": 1000.0 if n == 1 else float(seed)}}}))
'''


def stub_checkouts(root):
    """Parent and change checkouts under ``root`` whose benchmark command is
    ``STUB_RUN``, with the same one-file ``src/``."""
    for side in ("parent", "change"):
        (root / side / "perfbench").mkdir(parents=True)
        (root / side / "perfbench" / "run.py").write_text(STUB_RUN)
        (root / side / "src").mkdir()
        (root / side / "src" / "code.py").write_text("x = 1\n")
    (root / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}], "per_layer": []}))


def one_set(root, seeds="3-5"):
    out = root / "bench.json"
    assert main(["--parent", str(root / "parent"), "--change", str(root / "change"),
                 "--workload", "desk-train", "--seeds", seeds, "--out", str(out)]) == 0
    return json.loads(out.read_text())["sets"][-1]


def test_warm_up_runs_are_discarded(tmp_path):
    # a stub benchmark command in two checkouts: each is run once before
    # the pairs, and that run is in neither the runs nor the summary
    stub_checkouts(tmp_path)
    doc = one_set(tmp_path)
    for side in ("parent", "change"):
        assert (tmp_path / side / "calls").read_text() == "4"  # warm-up and three pairs
    assert len(doc["runs"]) == 6
    assert sorted(run["metadata"]["call"] for run in doc["runs"]) == [2, 2, 3, 3, 4, 4]
    assert {run["result"]["metrics"]["wall_s"]["value"] for run in doc["runs"]} == {3.0, 4.0, 5.0}
    wall = doc["summary"]["desk-train"]["wall_s"]
    assert wall["pairs"] == 3
    assert wall["parent"] == wall["change"] == {"median": 4.0, "q1": 3.0, "q3": 5.0}


def git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   cwd=cwd, check=True, capture_output=True)


def test_checkout_inside_another_work_tree_has_no_commit(tmp_path):
    # checkouts without .git nested in a repository: its HEAD is not theirs
    git(tmp_path, "init", "-q")
    git(tmp_path, "commit", "-q", "--allow-empty", "-m", "outer")
    stub_checkouts(tmp_path)
    assert one_set(tmp_path, "3")["commits"] == {"parent": None, "change": None}
    git(tmp_path / "change", "init", "-q")
    git(tmp_path / "change", "commit", "-q", "--allow-empty", "-m", "inner")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path / "change",
                          capture_output=True, text=True, check=True).stdout.strip()
    assert one_set(tmp_path, "3")["commits"] == {"parent": None, "change": head}


def test_content_hash_tells_checkouts_apart_by_one_source_byte(tmp_path):
    stub_checkouts(tmp_path)
    hashes = one_set(tmp_path, "3")["content_sha256"]
    assert hashes["parent"] == hashes["change"]
    # a run's bytecode cache is not code
    (tmp_path / "change" / "src" / "__pycache__").mkdir()
    (tmp_path / "change" / "src" / "__pycache__" / "code.pyc").write_bytes(b"\0")
    assert one_set(tmp_path, "3")["content_sha256"] == hashes
    (tmp_path / "change" / "src" / "code.py").write_text("x = 2\n")
    changed = one_set(tmp_path, "3")["content_sha256"]
    assert changed["parent"] == hashes["parent"] != changed["change"]
