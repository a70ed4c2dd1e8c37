"""End-to-end command-line runs, in process, on tiny synthetic corpora."""

import csv
import json

import numpy as np
import pytest

from mffftnet import cli
from mffftnet.cli import ABLATION_VARIANTS, main
from mffftnet.data import PerturbationSpec, load_csv, split
from mffftnet.evaluation import ForecastReport
from mffftnet.model import Model
from mffftnet.training import load_checkpoint, save_checkpoint
from tests.test_training import tiny_model

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


@pytest.mark.parametrize(
    "spec",
    [
        {"n": 10},
        {"n": "x", "features": []},
        {"n": 10, "features": [{"waves": [[24, 1.0]]}]},
        [SPEC],
        {"n": 10, "features": []},
    ],
    ids=["no-features", "n-not-a-number", "short-wave", "top-level-list", "zero-features"],
)
def test_synth_malformed_spec_exits_2(tmp_path, capsys, spec):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    assert main(["synth", str(bad), str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x.csv").exists()


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


def test_eval_checkpoint_config_line_without_equals_exits_2(tmp_path, corpus, capsys):
    bad = tmp_path / "bad_config.bin"
    save_checkpoint(bad, tiny_model(), "profile = desk\nstray line\n")
    rc, err = _eval_stderr(bad, corpus, tmp_path, capsys)
    assert rc == 2 and "checkpoint config:2: expected 'key = value'" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


BAD_ALPHA_GRIDS = ["abc", "nan", ",", "-1", "0"]


def _one_line_error(err: str) -> bool:
    return "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("grid", BAD_ALPHA_GRIDS)
def test_train_bad_ridge_alphas_exits_2(tmp_path, corpus, capsys, grid):
    out = tmp_path / "m.bin"
    rc = main(["train", str(corpus), "--out", str(out), *FAST, "--eval.ridge-alphas", grid])
    err = capsys.readouterr().err
    assert rc == 2 and "alpha" in err and _one_line_error(err)
    assert not out.exists()


@pytest.mark.parametrize("grid", BAD_ALPHA_GRIDS)
def test_eval_checkpoint_with_bad_ridge_alphas_exits_2(tmp_path, corpus, checkpoint, capsys, grid):
    # a checkpoint written before the grid was checked at train time
    ckpt = load_checkpoint(checkpoint)
    text = ckpt.config_text.replace(
        "eval.ridge_alphas = 0.01,0.1,1,10,100", f"eval.ridge_alphas = {grid}"
    )
    assert text != ckpt.config_text
    cfg = cli._runconfig_from_text(ckpt.config_text)
    model = Model.build(cfg.model_config(2), init_seed=int(cfg["seed"]))
    model.load_state(ckpt.params)
    bad = tmp_path / "bad_grid.bin"
    save_checkpoint(bad, model, text)
    rc, err = _eval_stderr(bad, corpus, tmp_path, capsys)
    assert rc == 2 and "alpha" in err and _one_line_error(err)


@pytest.mark.parametrize("horizons", ["0", "-5", "abc", "8,0"])
def test_eval_bad_horizons_exits_2(tmp_path, corpus, checkpoint, capsys, horizons):
    rep = tmp_path / "rep.json"
    rc = main(["eval", str(checkpoint), str(corpus), "--report", str(rep), "--horizons", horizons])
    err = capsys.readouterr().err
    assert rc == 2 and "horizons" in err and _one_line_error(err)
    assert not rep.exists()


def test_train_bad_eval_horizons_exits_2(tmp_path, corpus, capsys):
    out = tmp_path / "m.bin"
    rc = main(["train", str(corpus), "--out", str(out), *FAST, "--eval.horizons", "0"])
    err = capsys.readouterr().err
    assert rc == 2 and "horizons" in err and _one_line_error(err)


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


def _train_stderr(tmp_path, data, capsys, *extra):
    rc = main(["train", str(data), "--out", str(tmp_path / "m.bin"), *FAST, *extra])
    return rc, capsys.readouterr().err


def test_train_divergence_exits_4_naming_the_step(tmp_path, corpus, capsys):
    rc, err = _train_stderr(tmp_path, corpus, capsys, "--train.learning-rate", "1e100")
    assert rc == 4 and "numeric failure: non-finite value in the" in err
    assert "at epoch 0, step 1" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_train_config_not_utf8_exits_2(tmp_path, corpus, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe")
    rc, err = _train_stderr(tmp_path, corpus, capsys, "--config", str(cfg))
    assert rc == 2 and "bad.cfg" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_train_csv_not_utf8_exits_3(tmp_path, corpus, capsys):
    bad = tmp_path / "bad.csv"
    raw = corpus.read_bytes()
    bad.write_bytes(raw[:200] + b"\xff" + raw[200:])
    rc, err = _train_stderr(tmp_path, bad, capsys)
    assert rc == 3 and "not valid UTF-8" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_train_csv_field_over_size_limit_exits_3(tmp_path, corpus, capsys):
    lines = corpus.read_text().splitlines()
    lines[3] += "9" * (csv.field_size_limit() + 1)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc, err = _train_stderr(tmp_path, bad, capsys)
    assert rc == 3 and "field larger than field limit" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_synth_spec_not_utf8_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_bytes(b'{"n": 10, "features": []}\xff')
    assert main(["synth", str(spec), str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "cannot read synthetic spec" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


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
    # only the train rows are perturbed; validation and test rows stay as read
    table = load_csv(corpus)
    train_end = split(table).train_end
    perturbed = cli._perturb_train_rows(
        table, PerturbationSpec(kind=kind, ratio=0.5), train_end
    )
    assert not np.array_equal(perturbed.values[:train_end], table.values[:train_end])
    np.testing.assert_array_equal(perturbed.values[train_end:], table.values[train_end:])


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


@pytest.mark.parametrize("ratios", ["abc", "0.1,1.5", "nan"])
def test_robustness_bad_ratios_exit_2_before_training(
    tmp_path, corpus, capsys, monkeypatch, ratios
):
    def no_training(*args):
        raise AssertionError("a model was trained before the ratios were checked")

    monkeypatch.setattr(cli, "_build_and_fit", no_training)
    rc = main(["robustness", str(corpus), "--kind", "noise", "--ratios", ratios,
               "--out", str(tmp_path / "r.json"), *FAST])
    assert rc == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not (tmp_path / "r.json").exists()


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
