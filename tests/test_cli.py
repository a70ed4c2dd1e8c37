"""End-to-end command-line runs, in process, on tiny synthetic corpora."""

import json

import numpy as np
import pytest

from mffftnet.cli import ABLATION_VARIANTS, main
from mffftnet.data import load_csv
from mffftnet.evaluation import ForecastReport
from mffftnet.training import load_checkpoint

SPEC = {
    "n": 300,
    "seed": 3,
    "features": [
        {"waves": [[24, 1.0, 0.0]], "noise_std": 0.05},
        {"waves": [[16, 0.8, 1.0]], "noise_std": 0.05},
    ],
}

FAST = [
    "--window.length",
    "32",
    "--train.epochs",
    "1",
    "--train.batch-size",
    "4",
    "--eval.horizons",
    "8",
]


@pytest.fixture()
def corpus(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    csv = tmp_path / "toy.csv"
    assert main(["synth", str(spec), str(csv)]) == 0
    return csv


# -- synth -------------------------------------------------------------------


def test_synth_round_trip(corpus):
    table = load_csv(corpus)
    assert table.num_rows == 300 and table.num_features == 2
    assert table.feature_names == ["f0", "f1"]


def test_synth_deterministic(tmp_path, corpus):
    spec = tmp_path / "spec2.json"
    spec.write_text(json.dumps(SPEC))
    other = tmp_path / "toy2.csv"
    assert main(["synth", str(spec), str(other)]) == 0
    assert other.read_bytes() == corpus.read_bytes()


def test_synth_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["synth", str(bad), str(tmp_path / "x.csv")]) == 2
    assert "error" in capsys.readouterr().err


# -- train -------------------------------------------------------------------


def test_train_writes_loadable_checkpoint(tmp_path, corpus):
    ck = tmp_path / "m.bin"
    hist = tmp_path / "h.json"
    rc = main(["train", str(corpus), "--out", str(ck), "--history", str(hist), *FAST])
    assert rc == 0
    loaded = load_checkpoint(ck)
    assert "backbone.lin.w" in loaded.params
    assert "window.length = 32" in loaded.config_text
    history = json.loads(hist.read_text())
    assert len(history) == 1 and np.isfinite(history[0]["loss_total"])


def test_train_seed_reproducible(tmp_path, corpus):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    for out in (a, b):
        assert main(["train", str(corpus), "--out", str(out), "--seed", "7", *FAST]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_missing_data_exits_2(tmp_path, capsys):
    rc = main(["train", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.bin")])
    assert rc == 2
    assert "nope.csv" in capsys.readouterr().err


def test_train_bad_flag_value_exits_2(tmp_path, corpus):
    rc = main(
        ["train", str(corpus), "--out", str(tmp_path / "m.bin"), "--train.epochs", "x"]
    )
    assert rc == 2


# -- eval --------------------------------------------------------------------


def test_eval_report(tmp_path, corpus):
    ck = tmp_path / "m.bin"
    assert main(["train", str(corpus), "--out", str(ck), *FAST]) == 0
    rep = tmp_path / "rep.json"
    rc = main(["eval", str(ck), str(corpus), "--report", str(rep), "--horizons", "8"])
    assert rc == 0
    report = ForecastReport.from_json(rep.read_text())
    assert report.dataset == "toy"
    assert [e["horizon"] for e in report.entries] == [8]
    assert np.isfinite(report.avg_mse)


def test_eval_oversized_horizon_warns_but_succeeds(tmp_path, corpus, capsys):
    ck = tmp_path / "m.bin"
    assert main(["train", str(corpus), "--out", str(ck), *FAST]) == 0
    rep = tmp_path / "rep.json"
    rc = main(
        ["eval", str(ck), str(corpus), "--report", str(rep), "--horizons", "8,5000"]
    )
    assert rc == 0
    report = ForecastReport.from_json(rep.read_text())
    assert len(report.warnings) == 1 and "5000" in report.warnings[0]
    assert "warning" in capsys.readouterr().out


def test_eval_reproducible_report(tmp_path, corpus, monkeypatch):
    monkeypatch.setenv("MFF_TIMESTAMP", "2020-01-01T00:00:00+00:00")
    ck = tmp_path / "m.bin"
    assert main(["train", str(corpus), "--out", str(ck), "--seed", "1", *FAST]) == 0
    reps = []
    for name in ("r1.json", "r2.json"):
        rep = tmp_path / name
        assert (
            main(["eval", str(ck), str(corpus), "--report", str(rep), "--horizons", "8"])
            == 0
        )
        reps.append(rep.read_bytes())
    assert reps[0] == reps[1]


@pytest.fixture()
def checkpoint(tmp_path, corpus):
    ck = tmp_path / "m.bin"
    assert main(["train", str(corpus), "--out", str(ck), *FAST]) == 0
    return ck


def _eval_stderr(ck, data, tmp_path, capsys) -> tuple[int, str]:
    rep = tmp_path / "rep.json"
    rc = main(["eval", str(ck), str(data), "--report", str(rep), "--horizons", "8"])
    return rc, capsys.readouterr().err


def test_eval_missing_checkpoint_exits_2(tmp_path, corpus, capsys):
    rc, err = _eval_stderr(tmp_path / "nope.bin", corpus, tmp_path, capsys)
    assert rc == 2 and "nope.bin" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_eval_truncated_checkpoint_exits_2(tmp_path, corpus, checkpoint, capsys):
    raw = checkpoint.read_bytes()
    checkpoint.write_bytes(raw[: len(raw) // 2])
    rc, err = _eval_stderr(checkpoint, corpus, tmp_path, capsys)
    assert rc == 2 and "truncated" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_eval_checkpoint_shape_mismatch_exits_2(tmp_path, checkpoint, capsys):
    # the checkpoint was trained on 2 features; this corpus has 3
    spec = tmp_path / "spec3.json"
    spec.write_text(json.dumps({**SPEC, "features": (SPEC["features"] * 2)[:3]}))
    wide = tmp_path / "wide.csv"
    assert main(["synth", str(spec), str(wide)]) == 0
    rc, err = _eval_stderr(checkpoint, wide, tmp_path, capsys)
    assert rc == 2 and "shape" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_train_non_finite_cell_exits_3(tmp_path, corpus, capsys):
    lines = corpus.read_text().splitlines()
    stamp, *cells = lines[5].split(",")
    lines[5] = ",".join([stamp, "nan", *cells[1:]])
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["train", str(bad), "--out", str(tmp_path / "m.bin"), *FAST])
    err = capsys.readouterr().err
    assert rc == 3 and "row 5, column 'f0': non-finite" in err
    assert "Traceback" not in err


# -- ablate ------------------------------------------------------------------


def test_ablate_two_variants(tmp_path, corpus):
    out = tmp_path / "abl.json"
    rc = main(
        ["ablate", str(corpus), "--variants", "full,wo-fm", "--out", str(out), *FAST]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert [r["variant"] for r in payload["rows"]] == ["full", "wo-fm"]
    assert all(np.isfinite(r["avg_mse"]) for r in payload["rows"])


def test_ablate_unknown_variant_exits_2(tmp_path, corpus, capsys):
    rc = main(
        ["ablate", str(corpus), "--variants", "bogus", "--out", str(tmp_path / "a.json")]
    )
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_ablate_empty_variants_exits_2(tmp_path, corpus):
    rc = main(
        ["ablate", str(corpus), "--variants", ",", "--out", str(tmp_path / "a.json")]
    )
    assert rc == 2


def test_ablation_variant_table_complete():
    assert set(ABLATION_VARIANTS) == {
        "full",
        "wo-da",
        "wo-fm",
        "wo-cm",
        "wo-da-fm",
        "wo-da-cm",
        "wo-cm-fm",
        "wo-si",
    }


# -- robustness --------------------------------------------------------------


@pytest.mark.parametrize("kind", ["missing", "noise"])
def test_robustness_missing_rows(tmp_path, corpus, kind):
    out = tmp_path / "rob.json"
    rc = main(
        [
            "robustness",
            str(corpus),
            "--kind",
            kind,
            "--ratios",
            "0.1",
            "--out",
            str(out),
            *FAST,
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert [r["ratio"] for r in payload["rows"]] == [0.0, 0.1]
    assert all(np.isfinite(r["avg_mse"]) for r in payload["rows"])


def test_robustness_bad_kind_exits_2(tmp_path, corpus):
    rc = main(
        [
            "robustness",
            str(corpus),
            "--kind",
            "fire",
            "--ratios",
            "0.1",
            "--out",
            str(tmp_path / "r.json"),
        ]
    )
    assert rc == 2


# -- transfer ----------------------------------------------------------------


def test_transfer_report(tmp_path, corpus):
    rep = tmp_path / "tr.json"
    rc = main(
        [
            "transfer",
            str(corpus),
            str(corpus),
            "--pretrain-epochs",
            "1",
            "--finetune-epochs",
            "1",
            "--report",
            str(rep),
            *FAST,
        ]
    )
    assert rc == 0
    report = ForecastReport.from_json(rep.read_text())
    assert np.isfinite(report.avg_mse)


def test_transfer_zero_finetune_matches_pretrained_eval(tmp_path, corpus, monkeypatch):
    monkeypatch.setenv("MFF_TIMESTAMP", "2020-01-01T00:00:00+00:00")
    # pretrain via the train command, then evaluate that checkpoint directly
    ck = tmp_path / "m.bin"
    assert main(
        ["train", str(corpus), "--out", str(ck), "--seed", "2", *FAST]
    ) == 0
    rep_direct = tmp_path / "direct.json"
    assert (
        main(["eval", str(ck), str(corpus), "--report", str(rep_direct), "--horizons", "8"])
        == 0
    )
    # transfer with zero fine-tune epochs is a zero-shot evaluation of the
    # same pretrained weights
    rep_transfer = tmp_path / "transfer.json"
    assert (
        main(
            [
                "transfer",
                str(corpus),
                str(corpus),
                "--finetune-epochs",
                "0",
                "--report",
                str(rep_transfer),
                "--seed",
                "2",
                *FAST,
            ]
        )
        == 0
    )
    direct = ForecastReport.from_json(rep_direct.read_text())
    transfer = ForecastReport.from_json(rep_transfer.read_text())
    d = {e["horizon"]: (e["mse"], e["mae"]) for e in direct.entries}
    t = {e["horizon"]: (e["mse"], e["mae"]) for e in transfer.entries}
    assert d[8] == pytest.approx(t[8], abs=1e-12)
