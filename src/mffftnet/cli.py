"""Command-line entry point: train, eval, ablate, robustness, transfer, synth.

Configuration precedence is defaults < profile < config file < flags. Each
configuration key has one flag named after it, ``--<key>`` with ``_``
spelled ``-``, whose value is coerced like a config file value. ``mff
eval`` takes the profile and overrides its checkpoint was trained with in
place of the profile and config file, and has only the ``--eval.horizons``
and ``--eval.mode`` flags. Exit codes: 0 success, 2 usage/configuration
error or an output that cannot be written, 3 data error, 4 numeric
failure.
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
from .data import PerturbationSpec, SyntheticSpec
from .errors import ConfigurationError, DataError, MffError, NumericError
from .model import Model

# augmentation at zero strength: every draw is eps_s = 1, eps_b = 0
_NO_AUGMENTATION = {"augment.alpha": 0.0, "augment.beta": 0.0}

# variant -> (ModelConfig branches it builds without, configuration overrides)
ABLATION_VARIANTS: dict[str, tuple[tuple[str, ...], dict[str, object]]] = {
    "full": ((), {}),
    "wo-da": ((), _NO_AUGMENTATION),
    "wo-fm": (("facm",), {}),
    "wo-cm": (("ctcm",), {}),
    "wo-da-fm": (("facm",), _NO_AUGMENTATION),
    "wo-da-cm": (("ctcm",), _NO_AUGMENTATION),
    "wo-cm-fm": (("ctcm", "facm"), {}),
    "wo-si": ((), {"backbone.activation": "gelu"}),
}


def _timestamp() -> str:
    fixed = os.environ.get("MFF_TIMESTAMP")
    if fixed is not None:
        return fixed
    return datetime.now(timezone.utc).isoformat()


def _add_config_flags(parser: argparse.ArgumentParser, keys=tuple(DEFAULTS)) -> None:
    """One ``--<key>`` flag per configuration key in ``keys``, stored under
    the key itself as the raw string that ``RunConfig.resolve`` coerces."""
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), dest=key, default=None, metavar="V")


def _resolve_config(args, checkpoint_text: str | None = None) -> RunConfig:
    """The profile and config file named in ``args`` or, given
    ``checkpoint_text``, the configuration a checkpoint was written with,
    under the config flags in ``args``; a bad value fails here."""
    if checkpoint_text is None:
        profile = args.profile
        overrides = parse_config_file(args.config) if args.config else {}
    else:
        overrides = parse_config_text(checkpoint_text, "checkpoint config")
        profile = overrides.pop("profile", None)
    given = vars(args)
    flags = {key: given[key] for key in DEFAULTS if given.get(key) is not None}
    return RunConfig.resolve(profile, overrides, flags)


def _prepare(path, cfg: RunConfig | None = None):
    """The table at ``path``, its split and its standardized table. Given
    ``cfg``, raise ``ConfigurationError`` unless some probe horizon fits
    every split: from the split lengths, before any model trains."""
    if not Path(path).exists():
        raise ConfigurationError(f"data file not found: {path}")
    table = data_mod.load_csv(path)
    spec = data_mod.split(table)
    if cfg is not None:
        eval_mod.fitting_horizons(spec, int(cfg["window.length"]), cfg.int_list("eval.horizons"))
    return table, spec, data_mod.standardize(table, spec)


def _fit(model, std, spec, cfg: RunConfig, start_step: int = 0):
    """Train ``model`` on the train windows of ``std``: its loss history and
    the step that training after it starts at."""
    train_cfg = cfg.train_config()
    T, stride = int(cfg["window.length"]), int(cfg["window.stride"])
    wins = data_mod.window_batch(std, spec.train_range, T, stride).windows
    history = train_mod.fit(wins, model, train_cfg, cfg.augment_config(), start_step)
    return history, start_step + train_cfg.epochs * (len(wins) // train_cfg.batch_size)


def _build_and_fit(std, spec, cfg: RunConfig, drop: tuple[str, ...] = ()):
    """Build the model without the ``drop`` branches and train it: the
    model, its loss history and the next step."""
    model_cfg = replace(cfg.model_config(std.num_features), **dict.fromkeys(drop))
    model = Model.build(model_cfg, init_seed=int(cfg["seed"]))
    return (model, *_fit(model, std, spec, cfg))


def _evaluate(model, std, spec, cfg: RunConfig, name: str):
    T, alphas = int(cfg["window.length"]), tuple(cfg.float_list("eval.ridge_alphas"))
    report = eval_mod.evaluate_horizons(
        model, std, spec, T, cfg.int_list("eval.horizons"), str(cfg["eval.mode"]), alphas
    )
    report.dataset, report.config, report.timestamp = name, cfg.snapshot(), _timestamp()
    return report


def _report(model, std, spec, cfg: RunConfig, data, out) -> int:
    """Score ``model`` on the ``data`` corpus, write the report to ``out``
    and print its table."""
    report = _evaluate(model, std, spec, cfg, Path(data).stem)
    _write(out, report.to_json())
    print(report.console_table())
    return 0


def _write_rows(args, cfg: RunConfig, rows, key: str, width: int, fmt: str = "", **fields):
    """Write an ablate or robustness sweep's ``rows`` to ``args.out`` as
    JSON and print them as a table led by the ``key`` column."""
    payload = {"dataset": Path(args.data).stem, "rows": rows, "config": cfg.snapshot(), **fields}
    _write(args.out, json.dumps(payload, sort_keys=True, indent=2))
    print(f"{key:>{width}} {'MSE':>10} {'MAE':>10}")
    for row in rows:
        print(f"{row[key]:>{width}{fmt}} {row['avg_mse']:>10.4f} {row['avg_mae']:>10.4f}")
    return 0


def _write(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


# the arguments that name a file a command writes
_OUTPUTS = ("out", "history", "report")


def _check_outputs(args) -> None:
    """Raise ``ConfigurationError`` unless each output of ``args`` lies in
    an existing directory and is not one itself: before any input is read
    or model trained."""
    for path in filter(None, (getattr(args, name, None) for name in _OUTPUTS)):
        if not Path(path).parent.is_dir():
            raise ConfigurationError(f"cannot write {path}: no directory {Path(path).parent}")
        if Path(path).is_dir():
            raise ConfigurationError(f"cannot write {path}: it is a directory")


# -- commands --------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    _, spec, std = _prepare(args.data)
    model, history, steps = _build_and_fit(std, spec, cfg)
    train_mod.save_checkpoint(
        args.out, model, cfg.to_canonical_text(), epoch=int(cfg["train.epochs"]), step=steps
    )
    if args.history:
        _write(args.history, json.dumps(history, indent=2))
    print(f"trained {int(cfg['train.epochs'])} epochs; checkpoint written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    ckpt = train_mod.load_checkpoint(args.checkpoint)
    cfg = _resolve_config(args, ckpt.config_text)
    _, spec, std = _prepare(args.data)
    model = Model.build(cfg.model_config(std.num_features), init_seed=int(cfg["seed"]))
    model.load_state(ckpt.params)
    return _report(model, std, spec, cfg, args.data, args.report)


def cmd_ablate(args) -> int:
    cfg = _resolve_config(args)
    # a repeated variant trains once
    variants = list(dict.fromkeys(v.strip() for v in args.variants.split(",") if v.strip()))
    if not variants:
        raise ConfigurationError("variant list is empty")
    unknown = [v for v in variants if v not in ABLATION_VARIANTS]
    if unknown:
        raise ConfigurationError(
            f"unknown variants {unknown}; choose from {sorted(ABLATION_VARIANTS)}"
        )
    _, spec, std = _prepare(args.data, cfg)
    rows = []
    for variant in variants:
        drop, overrides = ABLATION_VARIANTS[variant]
        vcfg = cfg.override(overrides)
        model, history, _ = _build_and_fit(std, spec, vcfg, drop)
        report = _evaluate(model, std, spec, vcfg, Path(args.data).stem)
        final_loss = history[-1]["loss_total"] if history else None
        rows.append({"variant": variant, "avg_mse": report.avg_mse,
                     "avg_mae": report.avg_mae, "final_loss": final_loss})
    return _write_rows(args, cfg, rows, "variant", 10)


def cmd_robustness(args) -> int:
    cfg = _resolve_config(args)
    # each distinct ratio once, the unperturbed baseline first; every spec is
    # checked here, before the first model trains
    ratios = dict.fromkeys([0.0, *number_list(args.ratios, float, "--ratios")])
    seed = int(cfg["seed"])
    perts = [PerturbationSpec(args.kind, r, args.noise_mean, args.noise_std, seed) for r in ratios]
    table, spec, std = _prepare(args.data, cfg)
    rows = []
    for pert in perts:
        if args.kind == "noise":
            # Noise hits the raw train rows; normalization statistics are
            # then recomputed so they reflect the corrupted train split.
            noisy = data_mod.inject(table, pert, spec.train_end)
            perturbed = data_mod.standardize(noisy, data_mod.split(noisy))
        else:
            # Missing cells are zeroed after standardization (train-mean
            # imputation), restricted to the train split.
            perturbed = data_mod.inject(std, pert, spec.train_end)
        model, _, _ = _build_and_fit(perturbed, spec, cfg)
        report = _evaluate(model, std, spec, cfg, Path(args.data).stem)
        rows.append({"ratio": pert.ratio, "avg_mse": report.avg_mse, "avg_mae": report.avg_mae})
    return _write_rows(args, cfg, rows, "ratio", 8, ".2f", kind=args.kind)


def cmd_transfer(args) -> int:
    cfg = _resolve_config(args)
    _, pre_spec, pre_std = _prepare(args.pretrain_data)
    # the fine-tune inputs fail here, before any pretraining
    _, ft_spec, ft_std = _prepare(args.finetune_data, cfg)
    ft_epochs = args.finetune_epochs
    if ft_epochs is None:
        ft_epochs = int(cfg["train.epochs"]) // 2
    ft_cfg = cfg.override({"train.epochs": ft_epochs})
    if ft_epochs:
        # too few fine-tune windows for one batch fail before pretraining too
        n_windows = data_mod.window_count(
            ft_spec.train_range, int(cfg["window.length"]), int(cfg["window.stride"])
        )
        train_mod.check_batch(n_windows, int(cfg["train.batch_size"]))
    if pre_std.num_features != ft_std.num_features and not args.reinit_input:
        raise ConfigurationError(
            f"{args.pretrain_data} has {pre_std.num_features} features but "
            f"{args.finetune_data} has {ft_std.num_features}; pass --reinit-input "
            "to re-initialize the input linear layer and transfer the rest"
        )
    model, _, steps = _build_and_fit(pre_std, pre_spec, cfg)
    ft_model = Model.build(ft_cfg.model_config(ft_std.num_features), init_seed=int(cfg["seed"]))
    state = model.state_arrays()
    if args.reinit_input:
        # the input linear layer keeps its fresh initialization
        for name in ("backbone.lin.w", "backbone.lin.b"):
            state[name] = ft_model.params[name].data
    ft_model.load_state(state)
    if ft_epochs:
        # the augmentation and dropout draws carry on from the pretraining steps
        _fit(ft_model, ft_std, ft_spec, ft_cfg, steps)
    return _report(ft_model, ft_std, ft_spec, ft_cfg, args.finetune_data, args.report)


def cmd_synth(args) -> int:
    try:
        spec = SyntheticSpec(**json.loads(Path(args.spec).read_text(encoding="utf-8")))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read synthetic spec {args.spec}: {exc}") from exc
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad synthetic spec: {exc}") from None
    table = data_mod.gen_synthetic(spec.n, spec.features, seed=spec.seed)
    lines = ["date," + ",".join(table.feature_names)]
    for stamp, row in zip(table.timestamps, table.values):
        lines.append(stamp + "," + ",".join(repr(float(v)) for v in row))
    _write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {table.num_rows} rows x {table.num_features} features to {args.out}")
    return 0


# -- wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mff", description="Contrastive time-series representation learning"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--profile", default=None, choices=sorted(PROFILES))
        p.add_argument("--config", default=None, help="key = value overrides file")
        _add_config_flags(p)

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
    _add_config_flags(p, ("eval.horizons", "eval.mode"))
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
    p.add_argument("--finetune-epochs", type=int, default=None)
    p.add_argument("--reinit-input", action="store_true")
    p.add_argument("--report", required=True)
    common(p)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("synth", help="generate an ETT-format CSV from a JSON spec")
    p.add_argument("spec")
    p.add_argument("out")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        # a non-finite tensor value raises NumericError naming the op, its
        # shape and the step; numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except MffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
