"""Command-line entry point: train, eval, ablate, robustness, transfer, synth.

Configuration precedence is defaults < profile < config file < flags; every
configuration key has a long flag mirroring its dotted name. Exit codes:
0 success, 2 usage/configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import evaluation as eval_mod
from . import training as train_mod
from .config import (
    DEFAULTS,
    PROFILES,
    RunConfig,
    number_list,
    parse_config_file,
    parse_config_text,
)
from .data import PerturbationSpec, SyntheticFeature
from .errors import ConfigurationError, DataError, MffError, NumericError, ParameterError
from .model import Model
from .training import AblationFlags

ABLATION_VARIANTS: dict[str, AblationFlags] = {
    "full": AblationFlags(),
    "wo-da": AblationFlags(disable_augmentation=True),
    "wo-fm": AblationFlags(disable_facm=True),
    "wo-cm": AblationFlags(disable_ctcm=True),
    "wo-da-fm": AblationFlags(disable_augmentation=True, disable_facm=True),
    "wo-da-cm": AblationFlags(disable_augmentation=True, disable_ctcm=True),
    "wo-cm-fm": AblationFlags(disable_ctcm=True, disable_facm=True),
    "wo-si": AblationFlags(activation_gelu=True),
}


def _timestamp() -> str:
    fixed = os.environ.get("MFF_TIMESTAMP")
    if fixed is not None:
        return fixed
    return datetime.now(timezone.utc).isoformat()


def _add_config_flags(parser: argparse.ArgumentParser) -> dict[str, str]:
    mapping = {}
    for key in DEFAULTS:
        if key == "seed":  # added separately as a typed flag
            continue
        flag = "--" + key.replace("_", "-")
        dest = "cfg__" + key.replace(".", "__")
        parser.add_argument(flag, dest=dest, default=None, metavar="V")
        mapping[dest] = key
    return mapping


def _resolve_config(args, mapping) -> RunConfig:
    file_overrides = parse_config_file(args.config) if args.config else {}
    flag_overrides = {}
    for dest, key in mapping.items():
        val = getattr(args, dest, None)
        if val is not None:
            flag_overrides[key] = val
    if args.seed is not None:
        flag_overrides["seed"] = args.seed
    cfg = RunConfig.resolve(args.profile, file_overrides, flag_overrides)
    # a bad probe grid fails before any training, not at the probe after it
    eval_mod.check_probe_grid(cfg.int_list("eval.horizons"), cfg.float_list("eval.ridge_alphas"))
    return cfg


def _runconfig_from_text(text: str) -> RunConfig:
    overrides = parse_config_text(text, "checkpoint config")
    return RunConfig.resolve(overrides.pop("profile", None), overrides, {})


def _prepare(path, cfg: RunConfig):
    if not Path(path).exists():
        raise ConfigurationError(f"data file not found: {path}")
    table = data_mod.load_csv(path)
    spec = data_mod.split(table)
    std = data_mod.standardize(table, spec)
    return table, spec, std


def _train_windows(std, spec, cfg: RunConfig) -> np.ndarray:
    T = int(cfg["window.length"])
    stride = int(cfg["window.stride"])
    return data_mod.window_batch(std, spec.train_range, T, stride).windows


def _build_and_fit(std, spec, cfg: RunConfig, ablation: AblationFlags):
    if ablation.activation_gelu:
        cfg = RunConfig({**cfg.values, "backbone.activation": "gelu"})
    model_cfg = cfg.model_config(std.num_features)
    model = Model.build(model_cfg, init_seed=int(cfg["seed"]))
    train_cfg = cfg.train_config(ablation)
    aug_cfg = cfg.augment_config()
    wins = _train_windows(std, spec, cfg)
    history = train_mod.fit(wins, model, train_cfg, aug_cfg)
    steps = train_cfg.epochs * (len(wins) // train_cfg.batch_size)
    return model, history, steps, cfg


def _evaluate(model, table, std, spec, cfg: RunConfig, horizons=None, mode=None):
    name = cfg.get("dataset_name", "")
    return eval_mod.evaluate_horizons(
        model,
        std,
        spec,
        T=int(cfg["window.length"]),
        horizons=horizons or cfg.int_list("eval.horizons"),
        mode=mode or str(cfg["eval.mode"]),
        alpha_grid=tuple(cfg.float_list("eval.ridge_alphas")),
        dataset_name=name,
        config_snapshot=cfg.snapshot(),
        timestamp=_timestamp(),
    )


def _write(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


# -- commands --------------------------------------------------------------


def cmd_train(args, mapping) -> int:
    cfg = _resolve_config(args, mapping)
    _, spec, std = _prepare(args.data, cfg)
    model, history, steps, cfg = _build_and_fit(std, spec, cfg, AblationFlags())
    train_mod.save_checkpoint(
        args.out, model, cfg.to_canonical_text(), epoch=int(cfg["train.epochs"]), step=steps
    )
    if args.history:
        _write(args.history, json.dumps(history, indent=2))
    print(f"trained {int(cfg['train.epochs'])} epochs; checkpoint written to {args.out}")
    return 0


def cmd_eval(args, mapping) -> int:
    ckpt = train_mod.load_checkpoint(args.checkpoint)
    cfg = _runconfig_from_text(ckpt.config_text)
    table, spec, std = _prepare(args.data, cfg)
    cfg.values["dataset_name"] = Path(args.data).stem
    model = Model.build(cfg.model_config(std.num_features), init_seed=int(cfg["seed"]))
    model.load_state(ckpt.params)
    horizons = (
        number_list(args.horizons, int, "--horizons")
        if args.horizons
        else eval_mod.horizon_grid(Path(args.data).stem)
    )
    report = _evaluate(model, table, std, spec, cfg, horizons, args.mode)
    _write(args.report, report.to_json())
    print(report.console_table())
    return 0


def cmd_ablate(args, mapping) -> int:
    cfg = _resolve_config(args, mapping)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ConfigurationError("variant list is empty")
    unknown = [v for v in variants if v not in ABLATION_VARIANTS]
    if unknown:
        raise ConfigurationError(
            f"unknown variants {unknown}; choose from {sorted(ABLATION_VARIANTS)}"
        )
    table, spec, std = _prepare(args.data, cfg)
    cfg.values["dataset_name"] = Path(args.data).stem
    rows = []
    for variant in variants:
        model, history, _, vcfg = _build_and_fit(
            std, spec, cfg, ABLATION_VARIANTS[variant]
        )
        report = _evaluate(model, table, std, spec, vcfg)
        rows.append(
            {
                "variant": variant,
                "avg_mse": report.avg_mse,
                "avg_mae": report.avg_mae,
                "final_loss": history[-1]["loss_total"] if history else None,
            }
        )
    payload = {"dataset": Path(args.data).stem, "rows": rows, "config": cfg.snapshot()}
    _write(args.out, json.dumps(payload, sort_keys=True, indent=2))
    print(f"{'variant':>10} {'MSE':>10} {'MAE':>10}")
    for row in rows:
        print(f"{row['variant']:>10} {row['avg_mse']:>10.4f} {row['avg_mae']:>10.4f}")
    return 0


def _perturb_train_rows(table, pert: PerturbationSpec, train_end: int):
    """``table`` with ``pert`` applied to the rows before ``train_end`` only."""
    values = data_mod.inject(table, pert).values
    values[train_end:] = table.values[train_end:]
    return replace(table, values=values)


def cmd_robustness(args, mapping) -> int:
    cfg = _resolve_config(args, mapping)
    if args.kind not in ("noise", "missing"):
        raise ConfigurationError(f"kind must be noise or missing, got {args.kind!r}")
    # every ratio is checked here, before the first model trains
    perts = [
        PerturbationSpec(
            kind=args.kind,
            ratio=ratio,
            noise_mean=args.noise_mean,
            noise_std=args.noise_std,
            seed=int(cfg["seed"]),
        )
        for ratio in [0.0] + number_list(args.ratios, float, "--ratios")
    ]
    table, spec, std = _prepare(args.data, cfg)
    cfg.values["dataset_name"] = Path(args.data).stem
    rows = []
    for pert in perts:
        if args.kind == "noise":
            # Noise hits the raw train rows; normalization statistics are
            # then recomputed so they reflect the corrupted train split.
            noisy = _perturb_train_rows(table, pert, spec.train_end)
            perturbed = data_mod.standardize(noisy, data_mod.split(noisy))
        else:
            # Missing cells are zeroed after standardization (train-mean
            # imputation), restricted to the train split.
            perturbed = _perturb_train_rows(std, pert, spec.train_end)
        model, _, _, vcfg = _build_and_fit(perturbed, spec, cfg, AblationFlags())
        report = _evaluate(model, table, std, spec, vcfg)
        rows.append(
            {"ratio": pert.ratio, "avg_mse": report.avg_mse, "avg_mae": report.avg_mae}
        )
    payload = {
        "dataset": Path(args.data).stem,
        "kind": args.kind,
        "rows": rows,
        "config": cfg.snapshot(),
    }
    _write(args.out, json.dumps(payload, sort_keys=True, indent=2))
    print(f"{'ratio':>8} {'MSE':>10} {'MAE':>10}")
    for row in rows:
        print(f"{row['ratio']:>8.2f} {row['avg_mse']:>10.4f} {row['avg_mae']:>10.4f}")
    return 0


def cmd_transfer(args, mapping) -> int:
    cfg = _resolve_config(args, mapping)
    _, pre_spec, pre_std = _prepare(args.pretrain_data, cfg)
    pre_cfg = RunConfig(dict(cfg.values))
    if args.pretrain_epochs is not None:
        pre_cfg.values["train.epochs"] = args.pretrain_epochs
    model, _, steps, pre_cfg = _build_and_fit(pre_std, pre_spec, pre_cfg, AblationFlags())
    ckpt_text = pre_cfg.to_canonical_text()
    ckpt = train_mod.Checkpoint(
        params=model.state_arrays(),
        exempt={p.name for p in model.parameters() if p.weight_decay_exempt},
        config_text=ckpt_text,
        epoch=int(pre_cfg["train.epochs"]),
        step=steps,
    )

    ft_table, ft_spec, ft_std = _prepare(args.finetune_data, cfg)
    cfg.values["dataset_name"] = Path(args.finetune_data).stem
    ft_cfg = RunConfig(dict(cfg.values))
    ft_cfg.values["train.epochs"] = (
        args.finetune_epochs if args.finetune_epochs is not None else int(cfg["train.epochs"]) // 2
    )
    ft_model = Model.build(
        ft_cfg.model_config(ft_std.num_features), init_seed=int(ft_cfg["seed"])
    )
    train_mod.fine_tune(
        ckpt,
        ft_model,
        _train_windows(ft_std, ft_spec, ft_cfg),
        ft_cfg.train_config(),
        ft_cfg.augment_config(),
        reinit_input=args.reinit_input,
    )
    report = _evaluate(ft_model, ft_table, ft_std, ft_spec, ft_cfg)
    _write(args.report, report.to_json())
    print(report.console_table())
    return 0


def _synthetic_spec(spec) -> tuple[int, list[SyntheticFeature], int]:
    """Row count, features and seed of a decoded synth spec: an object with
    ``n``, ``features`` (objects with ``waves`` of [period, amplitude,
    phase], ``slope`` and ``noise_std``) and ``seed``. A malformed spec
    raises ConfigurationError."""
    if not isinstance(spec, dict):
        raise ConfigurationError(
            f"synthetic spec must be a JSON object, got {type(spec).__name__}"
        )
    try:
        n, seed = int(spec["n"]), int(spec.get("seed", 0))
        features = [
            SyntheticFeature(
                waves=[tuple(float(v) for v in w) for w in f.get("waves", [])],
                slope=float(f.get("slope", 0.0)),
                noise_std=float(f.get("noise_std", 0.0)),
            )
            for f in spec["features"]
        ]
    except KeyError as exc:
        raise ConfigurationError(f"synthetic spec has no {exc} field") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad synthetic spec: {exc}") from None
    if n < 1 or not features:
        raise ConfigurationError(
            f"synthetic spec needs n >= 1 and a feature, got n={n} and {len(features)} features"
        )
    for f in features:
        for w in f.waves:
            if len(w) != 3:
                raise ConfigurationError(
                    f"a synthetic wave is [period, amplitude, phase], got {list(w)}"
                )
    return n, features, seed


def cmd_synth(args, mapping) -> int:
    try:
        spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read synthetic spec {args.spec}: {exc}") from exc
    n, features, seed = _synthetic_spec(spec)
    table = data_mod.gen_synthetic(n, len(features), features, seed=seed)
    lines = ["date," + ",".join(table.feature_names)]
    for stamp, row in zip(table.timestamps, table.values):
        lines.append(stamp + "," + ",".join(repr(float(v)) for v in row))
    _write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {table.num_rows} rows x {table.num_features} features to {args.out}")
    return 0


# -- wiring ----------------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, str]]:
    parser = argparse.ArgumentParser(
        prog="mff", description="Contrastive time-series representation learning"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    mapping: dict[str, str] = {}

    def common(p):
        p.add_argument("--profile", default=None, choices=sorted(PROFILES))
        p.add_argument("--config", default=None, help="key = value overrides file")
        p.add_argument("--seed", type=int, default=None)
        mapping.update(_add_config_flags(p))

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("data")
    p.add_argument("--out", required=True)
    p.add_argument("--history", default=None)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint with the ridge probe")
    p.add_argument("checkpoint")
    p.add_argument("data")
    p.add_argument("--report", required=True)
    p.add_argument("--horizons", default=None)
    p.add_argument("--mode", default=None, choices=["multivariate", "univariate"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and score ablation variants")
    p.add_argument("data")
    p.add_argument("--variants", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("robustness", help="perturb the train split and retrain")
    p.add_argument("data")
    p.add_argument("--kind", required=True)
    p.add_argument("--ratios", required=True)
    p.add_argument("--noise-mean", type=float, default=10.0)
    p.add_argument("--noise-std", type=float, default=10.0)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("transfer", help="pretrain on one dataset, fine-tune on another")
    p.add_argument("pretrain_data")
    p.add_argument("finetune_data")
    p.add_argument("--pretrain-epochs", type=int, default=None)
    p.add_argument("--finetune-epochs", type=int, default=None)
    p.add_argument("--reinit-input", action="store_true")
    p.add_argument("--report", required=True)
    common(p)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("synth", help="generate an ETT-format CSV from a JSON spec")
    p.add_argument("spec")
    p.add_argument("out")
    p.set_defaults(func=cmd_synth)

    return parser, mapping


def main(argv=None) -> int:
    parser, mapping = build_parser()
    args = parser.parse_args(argv)
    try:
        # a non-finite tensor value raises NumericError naming the op, its
        # shape and the step; numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args, mapping)
    except (ConfigurationError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except MffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
