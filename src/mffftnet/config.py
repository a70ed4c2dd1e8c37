"""Layered run configuration: defaults <- named profile <- config file
<- command-line flags. Keys are flat and dotted; the fully resolved
mapping is serialized into every checkpoint and report."""

from __future__ import annotations

import math

from .augment import AugmentConfig
from .ctcm import CtcmConfig
from .encoder import BackboneConfig
from .errors import ConfigurationError
from .facm import FacmConfig
from .model import ModelConfig
from .training import TrainConfig

DEFAULTS: dict[str, object] = {
    "seed": 0,
    "window.length": 201,
    "window.stride": 1,
    "augment.alpha": 0.5,
    "augment.beta": 0.1,
    "backbone.hidden_dim": 32,
    "backbone.output_dim": 320,
    "backbone.num_blocks": 8,
    "backbone.kernel_size": 3,
    "backbone.dropout": 0.0,
    "backbone.activation": "silu",
    "facm.mask_ratio": 0.4,
    "facm.lambda": 0.5,
    "facm.dropout": 0.1,
    "ctcm.kernels": "1,2,4,8,16,32,64,128",
    "ctcm.msff_hidden": 96,
    "train.gamma1": 1.0,
    "train.gamma2": 1.0,
    "train.learning_rate": 1e-3,
    "train.momentum": 0.9,
    "train.weight_decay": 1e-4,
    "train.epochs": 600,
    "train.batch_size": 128,
    "eval.horizons": "24,48,168,336,720",
    "eval.mode": "multivariate",
    "eval.ridge_alphas": "0.01,0.1,1,10,100",
}

PROFILES: dict[str, dict[str, object]] = {
    # Small dimensions and short windows: every structural contract holds
    # but a full train/eval cycle runs in minutes.
    "desk": {
        "window.length": 64,
        "window.stride": 4,
        "backbone.hidden_dim": 16,
        "backbone.output_dim": 32,
        "backbone.num_blocks": 4,
        "ctcm.kernels": "1,2,4,8,16",
        "ctcm.msff_hidden": 16,
        "train.epochs": 50,
        "train.batch_size": 8,
        # Contrastive logits are raw dot products summed over time, so the
        # loss surface is steep at this scale; 1e-7 keeps SGD+momentum stable.
        "train.learning_rate": 1e-7,
        "eval.horizons": "24",
    },
    "paper-ett-multivariate": {
        "backbone.hidden_dim": 32,
        "backbone.num_blocks": 8,
        "ctcm.msff_hidden": 96,
        "train.weight_decay": 1e-4,
        "eval.mode": "multivariate",
    },
    "paper-ett-univariate": {
        "backbone.hidden_dim": 96,
        "backbone.num_blocks": 10,
        "ctcm.msff_hidden": 48,
        "train.weight_decay": 1e-5,
        "eval.mode": "univariate",
    },
    "paper-wth-multivariate": {
        "backbone.hidden_dim": 64,
        "backbone.num_blocks": 8,
        "ctcm.msff_hidden": 96,
        "train.weight_decay": 1e-4,
        "eval.mode": "multivariate",
    },
    "paper-wth-univariate": {
        "backbone.hidden_dim": 64,
        "backbone.num_blocks": 8,
        "ctcm.msff_hidden": 96,
        "train.weight_decay": 1e-4,
        "eval.mode": "univariate",
    },
}
PROFILES["paper"] = PROFILES["paper-ett-multivariate"]

_TYPES = {key: type(value) for key, value in DEFAULTS.items()}


def _coerce(key: str, raw) -> object:
    """``raw`` as ``key``'s type; a float key must be finite, the seed
    non-negative and a dropout rate in [0, 1)."""
    if key not in _TYPES:
        raise ConfigurationError(f"unknown configuration key {key!r}")
    want = _TYPES[key]
    try:
        value = want(str(raw))
    except ValueError:
        raise ConfigurationError(f"bad value {raw!r} for key {key!r}") from None
    if want is float and not math.isfinite(value):
        raise ConfigurationError(f"non-finite value {raw!r} for key {key!r}")
    if key == "seed" and value < 0:
        raise ConfigurationError(f"seed must be >= 0, got {value}")
    if key in ("backbone.dropout", "facm.dropout") and not 0.0 <= value < 1.0:
        raise ConfigurationError(f"{key}: dropout rate must be in [0, 1), got {value}")
    return value


def parse_config_text(text: str, origin) -> dict[str, object]:
    """Flat ``key = value`` lines; blank lines and # comments ignored.
    ``origin`` names the source in error messages."""
    overrides: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{origin}:{lineno}: expected 'key = value', got {line!r}"
            )
        key, _, value = line.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def parse_config_file(path) -> dict[str, object]:
    """``parse_config_text`` on the UTF-8 contents of ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, path)


def number_list(raw, kind, origin) -> list:
    """The comma-separated numbers in ``raw`` as ``kind`` (int or float);
    empty items are skipped. ``origin`` names the source in the error."""
    try:
        return [kind(tok) for tok in str(raw).split(",") if tok.strip()]
    except ValueError:
        raise ConfigurationError(f"bad value {raw!r} for {origin}") from None


class RunConfig:
    def __init__(self, values: dict[str, object]):
        self.values = values

    @classmethod
    def resolve(
        cls,
        profile: str | None = None,
        file_overrides: dict[str, object] | None = None,
        flag_overrides: dict[str, object] | None = None,
    ) -> "RunConfig":
        profile = profile or "desk"
        if profile not in PROFILES:
            raise ConfigurationError(
                f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
            )
        base = cls({**DEFAULTS, **PROFILES[profile], "profile": profile})
        return base.override(file_overrides or {}).override(flag_overrides or {})

    def override(self, overrides: dict[str, object]) -> "RunConfig":
        """A copy with each of ``overrides`` coerced to its key's type and
        set; an unknown key or a bad value raises ConfigurationError."""
        values = dict(self.values)
        for key, raw in overrides.items():
            values[key] = _coerce(key, raw)
        return RunConfig(values)

    def __getitem__(self, key):
        return self.values[key]

    def int_list(self, key) -> list[int]:
        return number_list(self.values[key], int, f"key {key!r}")

    def float_list(self, key) -> list[float]:
        return number_list(self.values[key], float, f"key {key!r}")

    def to_canonical_text(self) -> str:
        lines = [f"{key} = {self.values[key]}" for key in sorted(self.values)]
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict[str, object]:
        return dict(sorted(self.values.items()))

    # -- builders ----------------------------------------------------------
    def model_config(self, input_dim: int) -> ModelConfig:
        backbone = BackboneConfig(
            input_dim=input_dim,
            hidden_dim=int(self["backbone.hidden_dim"]),
            output_dim=int(self["backbone.output_dim"]),
            num_blocks=int(self["backbone.num_blocks"]),
            kernel_size=int(self["backbone.kernel_size"]),
            dropout_rate=float(self["backbone.dropout"]),
            activation=str(self["backbone.activation"]),
        )
        facm = FacmConfig(
            mask_ratio=float(self["facm.mask_ratio"]),
            lam=float(self["facm.lambda"]),
            dropout_rate=float(self["facm.dropout"]),
        )
        ctcm = CtcmConfig(
            kernels=tuple(self.int_list("ctcm.kernels")),
            msff_hidden=int(self["ctcm.msff_hidden"]),
        )
        return ModelConfig(
            window_length=int(self["window.length"]),
            backbone=backbone,
            facm=facm,
            ctcm=ctcm,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            gamma1=float(self["train.gamma1"]),
            gamma2=float(self["train.gamma2"]),
            learning_rate=float(self["train.learning_rate"]),
            momentum=float(self["train.momentum"]),
            weight_decay=float(self["train.weight_decay"]),
            epochs=int(self["train.epochs"]),
            batch_size=int(self["train.batch_size"]),
            seed=int(self["seed"]),
        )

    def augment_config(self) -> AugmentConfig:
        return AugmentConfig(
            alpha=float(self["augment.alpha"]),
            beta=float(self["augment.beta"]),
            seed=int(self["seed"]),
        )
