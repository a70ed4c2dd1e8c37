"""End-to-end command-line runs, in process, on tiny synthetic corpora."""

import argparse
import csv
import itertools
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mffftnet import cli
from mffftnet import training as train_mod
from mffftnet.cli import ABLATION_VARIANTS, main
from mffftnet.config import DEFAULTS, RunConfig, _coerce
from mffftnet.data import PerturbationSpec, inject, load_csv, split, standardize, window_batch
from mffftnet.evaluation import ForecastReport, evaluate_horizons
from mffftnet.model import Model
from mffftnet.training import fit, load_checkpoint, save_checkpoint
from tests.test_data import MALFORMED, field_limit_100  # noqa: F401 (a fixture)
from tests.test_training import rewrite_checkpoint, tiny_model

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
        {"n": 10, "features": [{"slope": float("nan")}]},
        {"n": 10, "features": [{"slope": float("-inf")}]},
        {"n": 10, "features": [{"waves": [[24, float("inf"), 0.0]]}]},
        {"n": 10, "features": [{"waves": [[24, 1.0, float("nan")]]}]},
        {"n": 10, "features": [{"noise_std": -0.1}]},
        {"n": 10, "features": [{"noise_std": float("nan")}]},
        {"n": 10, "features": [{"noise_std": float("inf")}]},
        {"n": 10**12, "features": [{}]},
        {"n": 10**19, "features": [{}]},
        {"n": 10, "seed": -1, "features": [{}]},
        {"n": float("inf"), "features": [{}]},
        {"n": 30.7, "features": [{}]},
        {"n": True, "features": [{}]},
        {"n": 30, "seed": 2.5, "features": [{}]},
        {"n": "30", "features": [{}]},
    ],
    ids=[
        "no-features", "n-not-a-number", "short-wave", "top-level-list", "zero-features",
        "nan-slope", "infinite-slope", "infinite-amplitude", "nan-phase",
        "negative-noise", "nan-noise", "infinite-noise", "n-past-datetime-max",
        "n-past-int64", "negative-seed", "infinite-n", "fractional-n", "boolean-n",
        "fractional-seed", "n-as-text",
    ],
)
def test_synth_malformed_spec_exits_2(tmp_path, capsys, spec):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    assert main(["synth", str(bad), str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x.csv").exists()


def test_synth_whole_number_floats_are_read_as_ints(tmp_path, corpus):
    spec = tmp_path / "spec2.json"
    spec.write_text(json.dumps({**SPEC, "n": 300.0, "seed": 3.0}))
    assert main(["synth", str(spec), str(tmp_path / "y.csv")]) == 0
    assert (tmp_path / "y.csv").read_bytes() == corpus.read_bytes()


@pytest.mark.parametrize("key, value", [("n", 30.7), ("n", True), ("seed", 2.5), ("n", "30")])
def test_synth_count_that_is_not_a_whole_number_names_its_key(tmp_path, capsys, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SPEC, key: value}))
    assert main(["synth", str(bad), str(tmp_path / "x.csv")]) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("spec,key", [
    ({**SPEC, "sed": 3}, "sed"),
    ({**SPEC, "features": [{"waves": [[24, 1.0, 0.0]], "noise_sd": 0.05}]}, "noise_sd"),
], ids=["top-level", "feature"])
def test_synth_key_that_no_field_reads_exits_2(tmp_path, capsys, spec, key):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    assert main(["synth", str(bad), str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and _one_line_error(err) and repr(key) in err
    assert not (tmp_path / "x.csv").exists()


def test_synth_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.data_mod, "gen_synthetic", out_of_memory)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    assert main(["synth", str(spec), str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and _one_line_error(err) and "memory" in err
    assert not (tmp_path / "x.csv").exists()


def test_train_out_of_memory_exits_2(tmp_path, corpus, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(train_mod, "fit", out_of_memory)
    out = tmp_path / "m.bin"
    assert main(["train", str(corpus), "--out", str(out), *FAST]) == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"
    assert not out.exists()


# -- configuration flags -----------------------------------------------------

CONFIG_KEYS = {*DEFAULTS, "profile"}

# a valid value other than the desk profile's for each string key, and for
# each number key that default + 1 would put out of range
FLAG_VALUES = {
    "backbone.output_dim": 64,
    "backbone.activation": "gelu",
    "backbone.dropout": 0.25,
    "facm.mask_ratio": 0.5,
    "facm.lambda": 0.25,
    "facm.dropout": 0.3,
    "ctcm.kernels": "1,2",
    "train.momentum": 0.5,
    "eval.horizons": "12",
    "eval.mode": "univariate",
    "eval.ridge_alphas": "0.5,5",
}


@pytest.mark.parametrize("key", list(DEFAULTS))
def test_config_flag_value_reaches_resolved_config(key):
    default = DEFAULTS[key]
    value = FLAG_VALUES[key] if key in FLAG_VALUES else default + 1
    flag = "--" + key.replace("_", "-")
    args = cli.build_parser().parse_args(
        ["train", "d.csv", "--out", "m.bin", "--profile", "desk", flag, str(value)]
    )
    assert value != RunConfig.resolve("desk")[key]
    assert cli._resolve_config(args)[key] == value


def test_train_help_lists_each_config_flag_once_in_defaults_order(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "--help"])
    assert exit_info.value.code == 0
    listed = re.findall(r"^\s+(--[\w.-]+)", capsys.readouterr().out, re.MULTILINE)
    flags = ["--" + key.replace("_", "-") for key in DEFAULTS]
    assert [f for f in listed if f in flags] == flags


def test_config_options_are_spelled_as_their_keys():
    # one flag per key, named after the whole key: no short alias such as
    # --horizons or --mode that bypasses the configuration
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    last_parts = {key.rsplit(".", 1)[-1] for key in DEFAULTS if "." in key}
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            for option in action.option_strings:
                if action.dest in DEFAULTS:
                    assert option == "--" + action.dest.replace("_", "-"), (command, option)
                assert option.lstrip("-").replace("-", "_") not in last_parts, (command, option)


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


def test_train_batch_size_one(tmp_path, corpus):
    out = tmp_path / "m.bin"
    assert main(["train", str(corpus), "--out", str(out), *FAST, "--train.batch-size", "1"]) == 0
    assert "train.batch_size = 1" in load_checkpoint(out).config_text


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
    rc = main(["eval", str(ck), str(corpus), "--report", str(rep), "--eval.horizons", "8"])
    assert rc == 0
    report = ForecastReport.from_json(rep.read_text())
    assert report.dataset == "toy"
    assert [e["horizon"] for e in report.entries] == [8]
    assert np.isfinite(report.avg_mse)
    assert set(report.config) == CONFIG_KEYS


def test_eval_without_probe_flags_scores_the_checkpoint_horizons(tmp_path):
    # the desk corpus and profile: the checkpoint says eval.horizons = 24
    data = tmp_path / "two_sine.csv"
    spec = Path(__file__).resolve().parents[1] / "scripts" / "specs" / "two_sine.json"
    assert main(["synth", str(spec), str(data)]) == 0
    ck, rep = tmp_path / "m.bin", tmp_path / "rep.json"
    train = ["train", str(data), "--out", str(ck), "--profile", "desk", "--train.epochs", "0"]
    assert main(train) == 0
    assert main(["eval", str(ck), str(data), "--report", str(rep)]) == 0
    report = ForecastReport.from_json(rep.read_text())
    assert [e["horizon"] for e in report.entries] == [24]
    assert report.warnings == [] and report.config["eval.horizons"] == "24"


def test_eval_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the same `mff eval` in two processes, under one and two BLAS threads:
    # a score block of the desk probe holds ~10^5 errors, past the length
    # at which a BLAS dot product splits its sum across threads, and the
    # lag sums of either mode go through one complex matmul. Five blocks
    # reach back 125 rows, past the 64-row window, so that checkpoint's
    # features are encoded one lookback at a time
    data = tmp_path / "two_sine.csv"
    spec = Path(__file__).resolve().parents[1] / "scripts" / "specs" / "two_sine.json"
    assert main(["synth", str(spec), str(data)]) == 0
    checkpoints = {"m.bin": [], "m_pw.bin": ["--backbone.num-blocks", "5"]}
    for name, flags in checkpoints.items():
        train = ["train", str(data), "--out", str(tmp_path / name), "--profile", "desk",
                 "--train.epochs", "0", *flags]
        assert main(train) == 0
    fields = [
        cli._resolve_config(argparse.Namespace(), load_checkpoint(tmp_path / name).config_text)
        .model_config(2).backbone.receptive_field
        for name in checkpoints
    ]
    assert fields == [61, 125]  # against T = 64: long segments, then one lookback a call
    src = str(Path(cli.__file__).resolve().parents[1])
    reports = []
    for ck, mode, threads in itertools.product(
        checkpoints, ("multivariate", "univariate"), ("1", "2")
    ):
        rep = tmp_path / f"rep_{ck}_{mode}_{threads}.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MFF_TIMESTAMP": "2020-01-01T00:00:00+00:00",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run(
            [sys.executable, "-m", "mffftnet.cli", "eval", str(tmp_path / ck), str(data),
             "--report", str(rep), "--eval.horizons", "24,48", "--eval.mode", mode],
            env=env, check=True, capture_output=True,
        )
        reports.append(rep.read_bytes())
    assert all(one == two for one, two in zip(reports[::2], reports[1::2]))


def test_eval_oversized_horizon_warns_but_succeeds(tmp_path, corpus, capsys):
    ck = tmp_path / "m.bin"
    assert main(["train", str(corpus), "--out", str(ck), *FAST]) == 0
    rep = tmp_path / "rep.json"
    rc = main(
        ["eval", str(ck), str(corpus), "--report", str(rep), "--eval.horizons", "8,5000"]
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
            main(["eval", str(ck), str(corpus), "--report", str(rep), "--eval.horizons", "8"])
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
    rc = main(["eval", str(ck), str(data), "--report", str(rep), "--eval.horizons", "8"])
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


def _version1_bytes(ckpt) -> bytes:
    """``ckpt`` in the version-1 layout: magic, version, config text,
    counters, then a name, rank, shape, decay flag and float64 blob per
    parameter."""
    text = ckpt.config_text.encode()
    parts = [b"MFFCKPT\x00", struct.pack("<II", 1, len(text)), text,
             struct.pack("<QQI", ckpt.epoch, ckpt.step, len(ckpt.params))]
    for name, arr in sorted(ckpt.params.items()):
        parts.append(struct.pack(f"<H{len(name)}sB{arr.ndim}IB", len(name), name.encode(),
                                 arr.ndim, *arr.shape, name in ckpt.exempt))
        parts.append(arr.astype("<f8").tobytes())
    return b"".join(parts)


@pytest.mark.parametrize(
    "case, needle",
    [("version-1", "is not a checkpoint file"),
     ("extra-member", "checkpoint has unknown parameters ['extra.w']"),
     ("float32-parameter", "checkpoint member 'fuse.w' is not <f8 data"),
     ("version-3", "unsupported checkpoint version 3")],
)
def test_eval_malformed_checkpoint_exits_2(tmp_path, corpus, checkpoint, capsys, case, needle):
    ckpt = load_checkpoint(checkpoint)
    if case == "version-1":
        checkpoint.write_bytes(_version1_bytes(ckpt))
    else:
        rewrite_checkpoint(checkpoint, **{
            "extra-member": {"extra.w": np.zeros(3)},
            "float32-parameter": {"fuse.w": ckpt.params["fuse.w"].astype("<f4")},
            "version-3": {"version": np.array(3, "<u8")},
        }[case])
    rc, err = _eval_stderr(checkpoint, corpus, tmp_path, capsys)
    assert rc == 2 and err.startswith("error: ") and needle in err and _one_line_error(err)


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
    cfg = cli._resolve_config(argparse.Namespace(), ckpt.config_text)
    model = Model.build(cfg.model_config(2), init_seed=int(cfg["seed"]))
    model.load_state(ckpt.params)
    bad = tmp_path / "bad_grid.bin"
    save_checkpoint(bad, model, text)
    rc, err = _eval_stderr(bad, corpus, tmp_path, capsys)
    assert rc == 2 and "alpha" in err and _one_line_error(err)


@pytest.fixture()
def no_encoding(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a window was encoded before the probe grid was checked")

    monkeypatch.setattr(Model, "encode", fail)


@pytest.mark.parametrize("horizons", ["0", "-5", "abc", "8,0", ",", "5000"])
def test_eval_bad_horizons_exits_2(tmp_path, corpus, checkpoint, capsys, no_encoding, horizons):
    rep = tmp_path / "rep.json"
    rc = main(
        ["eval", str(checkpoint), str(corpus), "--report", str(rep), "--eval.horizons", horizons]
    )
    err = capsys.readouterr().err
    assert rc == 2 and "horizons" in err and err.startswith("error: ") and _one_line_error(err)
    assert not rep.exists()


def test_eval_bad_mode_exits_2(tmp_path, corpus, checkpoint, capsys, no_encoding):
    rep = tmp_path / "rep.json"
    rc = main(["eval", str(checkpoint), str(corpus), "--report", str(rep), "--eval.mode", "foo"])
    err = capsys.readouterr().err
    assert rc == 2 and "mode" in err and err.startswith("error: ") and _one_line_error(err)
    assert not rep.exists()


def test_train_bad_eval_horizons_exits_2(tmp_path, corpus, capsys):
    out = tmp_path / "m.bin"
    rc = main(["train", str(corpus), "--out", str(out), *FAST, "--eval.horizons", "0"])
    err = capsys.readouterr().err
    assert rc == 2 and "horizons" in err and _one_line_error(err)


@pytest.mark.parametrize("key", ["--backbone.dropout", "--facm.dropout"])
@pytest.mark.parametrize("rate", ["-0.1", "1", "1.5"])
def test_train_bad_dropout_exits_2_before_reading_data(tmp_path, capsys, key, rate):
    out = tmp_path / "m.bin"
    rc = main(["train", str(tmp_path / "absent.csv"), "--out", str(out), key, rate])
    err = capsys.readouterr().err
    assert rc == 2 and "dropout rate must be in [0, 1)" in err and _one_line_error(err)
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("train.learning-rate", "-0.001"),
                                       ("train.learning-rate", "0"),
                                       ("train.momentum", "1.5"),
                                       ("train.weight-decay", "-1")])
def test_train_bad_optimizer_setting_exits_2_before_reading_data(tmp_path, capsys, key, value):
    out = tmp_path / "m.bin"
    rc = main(["train", str(tmp_path / "absent.csv"), "--out", str(out), "--" + key, value])
    err = capsys.readouterr().err
    assert rc == 2 and key.replace("-", "_") in err and _one_line_error(err)
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--window.length", "-5", "window.length must be >= 2, got -5"),
    ("--window.length", "0", "window.length must be >= 2, got 0"),
    ("--window.length", "1", "window.length must be >= 2, got 1"),
    ("--window.stride", "0", "window.stride must be >= 1, got 0"),
    ("--ctcm.kernels", "1,2,4,128", "ctcm.kernels: kernel 128 exceeds window.length 64"),
])
def test_train_bad_window_exits_2_before_reading_data(tmp_path, corpus, capsys, monkeypatch,
                                                      flag, value, message):
    def fail(*args, **kwargs):
        raise AssertionError("the corpus was read before the window was checked")

    monkeypatch.setattr(cli.data_mod, "load_csv", fail)
    out = tmp_path / "m.bin"
    rc = main(["train", str(corpus), "--out", str(out), "--profile", "desk", flag, value])
    err = capsys.readouterr().err
    assert rc == 2 and err == f"error: {message}\n"
    assert not out.exists()


# each command's flags after its data files; the last one names the output
TRAINING_COMMANDS = {
    "ablate": ["--variants", "full,wo-fm", "--out"],
    "robustness": ["--kind", "noise", "--ratios", "0.1", "--out"],
    "transfer": ["--report"],
}


@pytest.mark.parametrize("command", list(TRAINING_COMMANDS))
def test_unfit_horizons_exit_2_before_training(tmp_path, corpus, capsys, monkeypatch, command):
    def fail(*args, **kwargs):
        raise AssertionError("a model was trained before the horizons were checked")

    monkeypatch.setattr(train_mod, "fit", fail)
    data = [str(corpus)] * (2 if command == "transfer" else 1)
    out = tmp_path / "out.json"
    rc = main([command, *data, *TRAINING_COMMANDS[command], str(out),
               "--train.epochs", "1", "--eval.horizons", "5000"])
    err = capsys.readouterr().err
    assert rc == 2 and "none of the horizons fits every split" in err and _one_line_error(err)
    assert not out.exists()


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


@pytest.mark.parametrize("kind, raw, message", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_train_malformed_csv_exits_3_with_one_line(tmp_path, capsys, field_limit_100,
                                                   kind, raw, message):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(raw)
    rc, err = _train_stderr(tmp_path, bad, capsys)
    assert rc == 3 and err == f"data error: {message.format(path=bad)}\n"
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--augment.alpha", "-1"),
        ("--augment.beta", "-1"),
        ("--train.epochs", "-1"),
        ("--backbone.hidden-dim", "0"),
        ("--backbone.output-dim", "0"),
        ("--ctcm.msff-hidden", "0"),
        ("--eval.mode", "foo"),
        ("--augment.alpha", "nan"),
        ("--train.gamma1", "inf"),
        ("--train.learning-rate", "nan"),
        ("--seed", "-1"),
    ],
)
def test_train_bad_config_value_exits_2(tmp_path, corpus, capsys, flag, value):
    rc, err = _train_stderr(tmp_path, corpus, capsys, flag, value)
    assert rc == 2 and err.startswith("error: ") and _one_line_error(err)
    assert not (tmp_path / "m.bin").exists()


def test_train_divergence_exits_4_naming_the_step(tmp_path, corpus, capsys):
    rc, err = _train_stderr(tmp_path, corpus, capsys, "--train.learning-rate", "1e100")
    assert rc == 4 and "numeric failure: non-finite value in the" in err
    assert "at epoch 0, step 1" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_eval_without_a_finite_ridge_alpha_exits_4_naming_the_grid(tmp_path, capsys):
    # 36 train rows give 28 lookbacks against K = 32 features, so the train
    # Gram is rank-deficient; at alpha 1e-320 its zero eigenvalues make every
    # validation SSE NaN
    spec, data = tmp_path / "tiny.json", tmp_path / "tiny.csv"
    spec.write_text(json.dumps({"n": 60, "seed": 0, "features": [
        {"waves": [[24, 1.0, 0.0]], "noise_std": 0.1},
        {"waves": [[12, 0.5, 0.3]], "noise_std": 0.1}]}))
    assert main(["synth", str(spec), str(data)]) == 0
    ck = tmp_path / "m.bin"
    assert main(["train", str(data), "--out", str(ck), "--profile", "desk",
                 "--train.epochs", "0", "--window.length", "8", "--ctcm.kernels", "1,2,4",
                 "--eval.ridge-alphas", "1e-320", "--eval.horizons", "1"]) == 0
    capsys.readouterr()
    rc = main(["eval", str(ck), str(data), "--report", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert rc == 4 and _one_line_error(err)
    assert err.strip() == (
        "numeric failure: no ridge alpha in [1e-320] gives a finite validation error at horizon 1"
    )
    assert not (tmp_path / "r.json").exists()


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
    assert set(payload["config"]) == CONFIG_KEYS


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


@pytest.mark.parametrize("variant", sorted(ABLATION_VARIANTS))
def test_ablation_overrides_are_coerced_config_values(variant):
    # cmd_ablate coerces a variant's overrides (RunConfig.override); each is
    # written as the value coercion stores, so the table reads as a config
    for key, value in ABLATION_VARIANTS[variant][1].items():
        assert key in DEFAULTS, key
        coerced = _coerce(key, value)
        assert coerced == value and type(coerced) is type(value), key


@pytest.mark.parametrize(
    "variant, absent",
    [
        ("wo-fm", ("facm.",)),
        ("wo-cm", ("ctcm.", "fuse.")),
        ("wo-cm-fm", ("facm.", "ctcm.", "fuse.")),
    ],
    ids=["wo-fm", "wo-cm", "wo-cm-fm"],
)
def test_ablation_variant_model_lacks_dropped_branches(corpus, variant, absent):
    _, spec, std = cli._prepare(corpus)
    cfg = RunConfig.resolve("desk", flag_overrides={"train.epochs": 0})
    drop, overrides = ABLATION_VARIANTS[variant]
    full, _, _ = cli._build_and_fit(std, spec, cfg)
    model, _, _ = cli._build_and_fit(std, spec, cfg.override(overrides), drop)
    assert set(model.params) == {n for n in full.params if not n.startswith(absent)}
    assert len(model.params) < len(full.params)


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
    assert set(payload["config"]) == CONFIG_KEYS
    # only the train rows are perturbed; validation and test rows stay as read
    table = load_csv(corpus)
    train_end = split(table).train_end
    perturbed = inject(table, PerturbationSpec(kind=kind, ratio=0.5), train_end)
    assert not np.array_equal(perturbed.values[:train_end], table.values[:train_end])
    np.testing.assert_array_equal(perturbed.values[train_end:], table.values[train_end:])


@pytest.mark.parametrize("kind", ["missing", "noise"])
@pytest.mark.parametrize("ratio", [0.1, 0.35, 1.0])
def test_robustness_ratio_is_a_share_of_the_train_cells(corpus, kind, ratio):
    table = load_csv(corpus)
    train_end = split(table).train_end
    perturbed = inject(table, PerturbationSpec(kind=kind, ratio=ratio, seed=5), train_end)
    changed = perturbed.values != table.values
    assert changed[:train_end].sum() == math.ceil(ratio * table.values[:train_end].size)
    assert not changed[train_end:].any()
    assert perturbed.timestamps == table.timestamps


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


@pytest.fixture()
def no_training(monkeypatch):
    def fail(*args):
        raise AssertionError("a model was trained before the specs were checked")

    monkeypatch.setattr(cli, "_build_and_fit", fail)


def _robustness_exits_2(tmp_path, corpus, capsys, *extra):
    out = tmp_path / "r.json"
    rc = main(["robustness", str(corpus), "--kind", "noise", "--out", str(out), *FAST, *extra])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: ") and _one_line_error(err)
    assert not out.exists()


@pytest.mark.parametrize("ratios", ["abc", "0.1,1.5", "nan"])
def test_robustness_bad_ratios_exit_2_before_training(
    tmp_path, corpus, capsys, no_training, ratios
):
    _robustness_exits_2(tmp_path, corpus, capsys, "--ratios", ratios)


@pytest.mark.parametrize(
    "flag, value",
    [("--noise-std", "-1"), ("--noise-std", "inf"), ("--noise-std", "nan"),
     ("--noise-mean", "nan"), ("--noise-mean", "inf")],
)
def test_robustness_bad_noise_exit_2_before_training(
    tmp_path, corpus, capsys, no_training, flag, value
):
    _robustness_exits_2(tmp_path, corpus, capsys, "--ratios", "0.1", flag, value)


# -- transfer ----------------------------------------------------------------


def test_transfer_report(tmp_path, corpus):
    rep = tmp_path / "tr.json"
    rc = main(
        [
            "transfer",
            str(corpus),
            str(corpus),
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
    assert set(report.config) == CONFIG_KEYS


def test_transfer_zero_finetune_matches_pretrained_eval(tmp_path, corpus, monkeypatch):
    monkeypatch.setenv("MFF_TIMESTAMP", "2020-01-01T00:00:00+00:00")
    # pretrain via the train command, then evaluate that checkpoint directly
    ck = tmp_path / "m.bin"
    assert main(
        ["train", str(corpus), "--out", str(ck), "--seed", "2", *FAST]
    ) == 0
    rep_direct = tmp_path / "direct.json"
    assert (
        main(["eval", str(ck), str(corpus), "--report", str(rep_direct), "--eval.horizons", "8"])
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


def test_transfer_continues_the_pretraining_step_counter(tmp_path, corpus):
    rep = tmp_path / "tr.json"
    assert main(
        ["transfer", str(corpus), str(corpus), "--finetune-epochs", "1",
         "--report", str(rep), *FAST]
    ) == 0
    # the same protocol by hand: fine-tuning's augmentation and dropout draws
    # carry on from the last pretraining step
    cfg = cli._resolve_config(
        cli.build_parser().parse_args(["train", str(corpus), "--out", "m.bin", *FAST])
    )
    table = load_csv(corpus)
    spec = split(table)
    std = standardize(table, spec)
    wins = window_batch(std, spec.train_range, 32, int(cfg["window.stride"])).windows
    train_cfg, aug_cfg = cfg.train_config(), cfg.augment_config()
    pre = Model.build(cfg.model_config(2), init_seed=int(cfg["seed"]))
    fit(wins, pre, train_cfg, aug_cfg)
    ft = Model.build(cfg.model_config(2), init_seed=int(cfg["seed"]))
    ft.load_state(pre.state_arrays())
    fit(wins, ft, train_cfg, aug_cfg, start_step=len(wins) // train_cfg.batch_size)
    alphas = tuple(cfg.float_list("eval.ridge_alphas"))
    by_hand = evaluate_horizons(ft, std, spec, 32, [8], str(cfg["eval.mode"]), alphas)
    assert ForecastReport.from_json(rep.read_text()).entries == by_hand.entries


@pytest.fixture()
def wide_corpus(tmp_path):
    spec = tmp_path / "spec3.json"
    spec.write_text(json.dumps({**SPEC, "features": (SPEC["features"] * 2)[:3]}))
    wide = tmp_path / "wide.csv"
    assert main(["synth", str(spec), str(wide)]) == 0
    return wide


@pytest.mark.parametrize(
    "case, needle",
    [("negative-epochs", "epochs must be >= 0"),
     ("feature-count", "--reinit-input"),
     ("missing-file", "data file not found"),
     ("short-file", "none of the horizons fits every split"),
     ("small-batch", "need at least batch_size=30 training windows, got 23")],
)
def test_transfer_bad_finetune_input_exits_2_before_training(
    tmp_path, corpus, wide_corpus, capsys, no_training, case, needle
):
    # 80 rows: the pretrain splits fit lookback 32 + horizon 8, its test split does not
    short = tmp_path / "short.csv"
    short.write_text("\n".join(corpus.read_text().splitlines()[:81]) + "\n")
    # 200 rows: 23 train windows of 32 at stride 4, against 38 in the pretrain corpus
    small = tmp_path / "small.csv"
    small.write_text("\n".join(corpus.read_text().splitlines()[:201]) + "\n")
    finetune, extra = {
        "negative-epochs": (corpus, ["--finetune-epochs", "-1"]),
        "feature-count": (wide_corpus, []),
        "missing-file": (tmp_path / "absent.csv", []),
        "short-file": (short, []),
        "small-batch": (small, ["--train.batch-size", "30", "--finetune-epochs", "1"]),
    }[case]
    rep = tmp_path / "tr.json"
    rc = main(["transfer", str(corpus), str(finetune), "--report", str(rep), *FAST, *extra])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: ") and _one_line_error(err)
    assert needle in err
    if case == "feature-count":  # the two data files, by name, with their counts
        assert f"{corpus} has 2 features but {finetune} has 3; pass --reinit-input" in err
    assert not rep.exists()


@pytest.mark.parametrize(
    "target, reinit",
    [("corpus", True), ("wide_corpus", True), ("corpus", False)],
)
def test_transfer_reinit_input_keeps_a_fresh_input_layer(
    tmp_path, monkeypatch, request, target, reinit
):
    corpus, finetune = request.getfixturevalue("corpus"), request.getfixturevalue(target)
    models = {}
    build_and_fit, evaluate = cli._build_and_fit, cli._evaluate

    def pretrain(*args):
        fitted = build_and_fit(*args)
        models["pre"] = fitted[0]
        return fitted

    def capture(model, *args):
        models["ft"] = model
        return evaluate(model, *args)

    monkeypatch.setattr(cli, "_build_and_fit", pretrain)
    monkeypatch.setattr(cli, "_evaluate", capture)
    flag = ["--reinit-input"] if reinit else []
    rep = tmp_path / "tr.json"
    assert main(
        ["transfer", str(corpus), str(finetune), "--finetune-epochs", "0", "--seed", "2",
         "--report", str(rep), *FAST, *flag]
    ) == 0
    pre, ft = models["pre"].params, models["ft"].params
    fresh = Model.build(models["ft"].config, init_seed=2).params
    lin = {"backbone.lin.w", "backbone.lin.b"}
    assert set(ft) == set(pre)
    for name in ft:
        want = fresh[name] if reinit and name in lin else pre[name]
        np.testing.assert_array_equal(ft[name].data, want.data, err_msg=name)
    # pretraining moved the input layer, so the two sources differ
    assert not np.array_equal(pre["backbone.lin.w"].data, fresh["backbone.lin.w"].data)


# -- outputs -----------------------------------------------------------------


# each command with one output in a directory that does not exist
MISSING_DIRECTORY_OUTPUTS = {
    "train --out": ["train", "{corpus}", "--out", "{out}", *FAST],
    "train --history": ["train", "{corpus}", "--out", "{tmp}/m.bin", "--history", "{out}", *FAST],
    "eval --report": ["eval", "{checkpoint}", "{corpus}", "--report", "{out}",
                      "--eval.horizons", "8"],
    "ablate --out": ["ablate", "{corpus}", "--variants", "full", "--out", "{out}", *FAST],
    "robustness --out": ["robustness", "{corpus}", "--kind", "noise", "--ratios", "0.1",
                         "--out", "{out}", *FAST],
    "transfer --report": ["transfer", "{corpus}", "{corpus}", "--report", "{out}", *FAST],
    "synth out": ["synth", "{tmp}/spec.json", "{out}"],
}


@pytest.mark.parametrize("case", list(MISSING_DIRECTORY_OUTPUTS))
def test_output_in_missing_directory_exits_2_before_any_work(
    tmp_path, corpus, capsys, monkeypatch, request, case
):
    argv = MISSING_DIRECTORY_OUTPUTS[case]
    checkpoint = request.getfixturevalue("checkpoint") if argv[0] == "eval" else None
    fits = []
    monkeypatch.setattr(train_mod, "fit", lambda *args, **kwargs: fits.append(args))
    out = tmp_path / "absent" / "out"
    names = {"corpus": corpus, "checkpoint": checkpoint, "out": out, "tmp": tmp_path}
    rc = main([arg.format(**names) for arg in argv])
    err = capsys.readouterr().err
    assert rc == 2 and err == f"error: cannot write {out}: no directory {out.parent}\n"
    assert fits == []


@pytest.mark.parametrize("case", list(MISSING_DIRECTORY_OUTPUTS))
def test_output_that_is_a_directory_exits_2_before_any_work(
    tmp_path, corpus, capsys, monkeypatch, request, case
):
    argv = MISSING_DIRECTORY_OUTPUTS[case]
    checkpoint = request.getfixturevalue("checkpoint") if argv[0] == "eval" else None
    calls = []
    monkeypatch.setattr(train_mod, "fit", lambda *args, **kwargs: calls.append("fit"))
    monkeypatch.setattr(cli.data_mod, "load_csv", lambda *args: calls.append("load_csv"))
    monkeypatch.setattr(train_mod, "load_checkpoint", lambda *args: calls.append("load"))
    out = tmp_path / "outdir"
    out.mkdir()
    names = {"corpus": corpus, "checkpoint": checkpoint, "out": out, "tmp": tmp_path}
    rc = main([arg.format(**names) for arg in argv])
    err = capsys.readouterr().err
    assert rc == 2 and err == f"error: cannot write {out}: it is a directory\n"
    assert calls == [] and list(out.iterdir()) == []
    if case == "train --history":  # the checkpoint is not written either
        assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize(
    "outputs", [["--out", "{tmp}"], ["--out", "{tmp}/m.bin", "--history", "{tmp}"]],
    ids=["--out", "--history"],
)
def test_train_output_that_cannot_be_written_exits_2(tmp_path, corpus, capsys, outputs):
    # a directory lies in an existing directory, but no file can be written in its place
    rc = main(["train", str(corpus), *[arg.format(tmp=tmp_path) for arg in outputs], *FAST])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith(f"error: cannot write {tmp_path}: ") and _one_line_error(err)


@pytest.mark.parametrize(
    "argv, key, rows",
    [
        (["robustness", "--kind", "missing", "--ratios", "0,0.1,0.1"], "ratio", [0.0, 0.1]),
        (["ablate", "--variants", "full,full"], "variant", ["full"]),
    ],
    ids=["ratios", "variants"],
)
def test_repeated_ratio_or_variant_trains_once(tmp_path, corpus, monkeypatch, argv, key, rows):
    fit, fits = train_mod.fit, []

    def spy(*args, **kwargs):
        fits.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(train_mod, "fit", spy)
    out = tmp_path / "out.json"
    assert main([argv[0], str(corpus), *argv[1:], "--out", str(out), *FAST]) == 0
    assert [r[key] for r in json.loads(out.read_text())["rows"]] == rows
    assert len(fits) == len(rows)
