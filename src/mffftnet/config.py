"""Layered run configuration: defaults <- named profile <- config file
<- command-line flags. Keys are flat and dotted; the fully resolved
mapping is serialized into every checkpoint and report."""

from __future__ import annotations

import math

from .augment import AugmentConfig
from .ctcm import CtcmConfig
from .encoder import BackboneConfig
from .errors import ConfigurationError
from .evaluation import DEFAULT_ALPHA_GRID, check_probe_grid
from .facm import FacmConfig
from .model import ModelConfig
from .training import TrainConfig

# key -> (config dataclass, field): the dataclass holds the key's default
# and the rules for its value
_FIELDS = {
    "augment.alpha": (AugmentConfig, "alpha"),
    "augment.beta": (AugmentConfig, "beta"),
    "backbone.hidden_dim": (BackboneConfig, "hidden_dim"),
    "backbone.output_dim": (BackboneConfig, "output_dim"),
    "backbone.num_blocks": (BackboneConfig, "num_blocks"),
    "backbone.kernel_size": (BackboneConfig, "kernel_size"),
    "backbone.dropout": (BackboneConfig, "dropout_rate"),
    "backbone.activation": (BackboneConfig, "activation"),
    "facm.mask_ratio": (FacmConfig, "mask_ratio"),
    "facm.lambda": (FacmConfig, "lam"),
    "facm.dropout": (FacmConfig, "dropout_rate"),
    "ctcm.kernels": (CtcmConfig, "kernels"),
    "ctcm.msff_hidden": (CtcmConfig, "msff_hidden"),
    "train.gamma1": (TrainConfig, "gamma1"),
    "train.gamma2": (TrainConfig, "gamma2"),
    "train.learning_rate": (TrainConfig, "learning_rate"),
    "train.momentum": (TrainConfig, "momentum"),
    "train.weight_decay": (TrainConfig, "weight_decay"),
    "train.epochs": (TrainConfig, "epochs"),
    "train.batch_size": (TrainConfig, "batch_size"),
}

DEFAULTS: dict[str, object] = {
    "seed": 0,
    "window.length": 201,
    "window.stride": 1,
    **{key: getattr(cls, name) for key, (cls, name) in _FIELDS.items()},
    "eval.horizons": "24,48,168,336,720",
    "eval.mode": "multivariate",
    "eval.ridge_alphas": ",".join(f"{a:g}" for a in DEFAULT_ALPHA_GRID),
}
# a key holds the kernel sizes as comma-separated text
DEFAULTS["ctcm.kernels"] = ",".join(map(str, CtcmConfig.kernels))

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
# the least value of a key that no dataclass field holds the rules of
_LEAST = {"seed": 0, "window.stride": 1}


def _coerce(key: str, raw) -> object:
    """``raw`` as ``key``'s type; a float key must be finite, and the seed
    and the stride at least their ``_LEAST``. The dataclass a key sets
    holds the key's other rules."""
    if key not in _TYPES:
        raise ConfigurationError(f"unknown configuration key {key!r}")
    want = _TYPES[key]
    try:
        value = want(str(raw))
    except ValueError:
        raise ConfigurationError(f"bad value {raw!r} for key {key!r}") from None
    if want is float and not math.isfinite(value):
        raise ConfigurationError(f"non-finite value {raw!r} for key {key!r}")
    if key in _LEAST and value < _LEAST[key]:
        raise ConfigurationError(f"{key} must be >= {_LEAST[key]}, got {value}")
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
        set; an unknown key, a bad value, or a config that the model,
        training, augmentation or probe rejects raises ConfigurationError."""
        values = dict(self.values)
        for key, raw in overrides.items():
            values[key] = _coerce(key, raw)
        cfg = RunConfig(values)
        cfg.model_config(input_dim=1)  # the data sets input_dim, which has no rule
        cfg.train_config()
        cfg.augment_config()
        check_probe_grid(
            cfg.int_list("eval.horizons"), cfg.float_list("eval.ridge_alphas"), cfg["eval.mode"]
        )
        return cfg

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
    def _build(self, cls, **given):
        """``cls`` from the values of the keys that set its fields, and ``given``."""
        fields = {name: self[key] for key, (owner, name) in _FIELDS.items() if owner is cls}
        return cls(**{**fields, **given})

    def model_config(self, input_dim: int) -> ModelConfig:
        return ModelConfig(
            window_length=self["window.length"],
            backbone=self._build(BackboneConfig, input_dim=input_dim),
            facm=self._build(FacmConfig),
            ctcm=self._build(CtcmConfig, kernels=self.int_list("ctcm.kernels")),
        )

    def train_config(self) -> TrainConfig:
        return self._build(TrainConfig, seed=self["seed"])

    def augment_config(self) -> AugmentConfig:
        return self._build(AugmentConfig, seed=self["seed"])
