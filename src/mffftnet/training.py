"""Joint training: the weighted two-term loss, SGD with momentum and weight
decay, the epoch loop and binary checkpoints."""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import ctcm as ctcm_mod
from . import facm as facm_mod
from .augment import AugmentConfig, augment_view
from .errors import ConfigurationError, NumericError
from .model import Model
from .tensor import Parameter, Tensor


@dataclass
class TrainConfig:
    gamma1: float = 1.0
    gamma2: float = 1.0
    learning_rate: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 600
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ConfigurationError("loss weights must be non-negative")
        if not self.learning_rate > 0.0:
            raise ConfigurationError(f"train.learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(f"train.momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise ConfigurationError(f"train.weight_decay must be >= 0, got {self.weight_decay}")
        if self.epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}: each InfoNCE "
                "takes its negatives from inside one window"
            )


def total_loss(
    batch: np.ndarray,
    model: Model,
    cfg: TrainConfig,
    aug_cfg: AugmentConfig,
    step: int = 0,
    training: bool = True,
) -> tuple[Tensor, Tensor, Tensor]:
    """(L_total, L_time, L_freq) for one B x T x D batch of windows.

    The two augmented views are stacked on a leading axis of 2 and run
    through every module as one (2, B, ...) batch, so they share every
    parameter and one dropout seed per step. A branch the model was built
    without (``model.config.facm`` or ``.ctcm`` is None) has no loss term,
    and without FACM the fusion takes zeros for the frequency half.
    """
    # window i of view v draws with index 2 * step * B + 2i + v
    views = augment_view(np.stack([batch, batch]), aug_cfg, 2 * step * len(batch))
    r = model.encode(Tensor(views), training, rng_seed=step)

    if model.config.facm is None:
        l_freq = Tensor(0.0)
        h_hat = Tensor(np.zeros(r.shape[:-1] + (model.config.backbone.output_dim // 2,)))
    else:
        h_hat, s = model.facm(r, training, rng_seed=step)
        _, _, l_freq = facm_mod.freq_contrastive_loss(s, model.config.facm.lam)

    if model.config.ctcm is None:
        l_time = Tensor(0.0)
    else:
        # the mean over the (2, B) leading axes is the mean of the two view losses
        l_time = ctcm_mod.time_contrastive_loss(r, model.fuse(model.ctcm(r), h_hat))

    l_total = l_time * cfg.gamma1 + l_freq * cfg.gamma2
    return l_total, l_time, l_freq


def sgd_step(
    params: list[Parameter],
    velocities: dict[str, np.ndarray],
    lr: float,
    momentum: float,
    weight_decay: float,
) -> None:
    """v <- momentum*v + grad + W*param; param <- param - lr*v, both in
    place. Decay-exempt parameters skip the W term. A new velocity is a copy
    of the gradient, so no velocity aliases a ``.grad``."""
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if weight_decay and not p.weight_decay_exempt:
            g = g + weight_decay * p.data
        v = velocities.get(p.name)
        if v is None:
            v = velocities[p.name] = g.copy()
        else:
            v *= momentum
            v += g
        p.data -= lr * v


def check_batch(n_windows: int, batch_size: int) -> None:
    """Raise ``ConfigurationError`` unless ``n_windows`` training windows fill one batch."""
    if n_windows < batch_size:
        raise ConfigurationError(
            f"need at least batch_size={batch_size} training windows, got {n_windows}"
        )


def fit(
    train_windows: np.ndarray,
    model: Model,
    cfg: TrainConfig,
    aug_cfg: AugmentConfig,
    start_step: int = 0,
) -> list[dict]:
    """Epoch loop over shuffled mini-batches; returns per-epoch loss history."""
    check_batch(len(train_windows), cfg.batch_size)
    velocities: dict[str, np.ndarray] = {}
    history: list[dict] = []
    step = start_step
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng([cfg.seed, 1000 + epoch])
        order = rng.permutation(len(train_windows))
        totals, times, freqs = [], [], []
        for lo in range(0, len(order) - cfg.batch_size + 1, cfg.batch_size):
            batch = train_windows[order[lo : lo + cfg.batch_size]]
            try:
                l_total, l_time, l_freq = total_loss(
                    batch, model, cfg, aug_cfg, step=step, training=True
                )
            except NumericError as exc:
                raise NumericError(f"{exc} at epoch {epoch}, step {step}") from None
            model.zero_grad()
            l_total.backward()
            sgd_step(
                model.parameters(),
                velocities,
                cfg.learning_rate,
                cfg.momentum,
                cfg.weight_decay,
            )
            totals.append(l_total.item())
            times.append(l_time.item())
            freqs.append(l_freq.item())
            step += 1
        history.append(
            {
                "epoch": epoch,
                "loss_total": float(np.mean(totals)),
                "loss_time": float(np.mean(times)),
                "loss_freq": float(np.mean(freqs)),
            }
        )
    return history


# -- checkpoints -----------------------------------------------------------

_MAGIC = b"MFFCKPT\x00"
_VERSION = 1


@dataclass
class Checkpoint:
    params: dict[str, np.ndarray]
    exempt: set[str]
    config_text: str
    epoch: int
    step: int


def save_checkpoint(
    path, model: Model, config_text: str, epoch: int = 0, step: int = 0
) -> None:
    """Versioned binary container: magic, version, config text, named
    little-endian float64 parameter blobs. A file that cannot be written
    raises ``ConfigurationError``."""
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<I", _VERSION))
    cfg_bytes = config_text.encode("utf-8")
    buf.write(struct.pack("<I", len(cfg_bytes)))
    buf.write(cfg_bytes)
    buf.write(struct.pack("<QQ", epoch, step))
    items = sorted(model.params.items())
    buf.write(struct.pack("<I", len(items)))
    for name, p in items:
        nb = name.encode("utf-8")
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<B", p.data.ndim))
        for dim in p.data.shape:
            buf.write(struct.pack("<I", dim))
        buf.write(struct.pack("<B", int(p.weight_decay_exempt)))
        buf.write(p.data.astype("<f8").tobytes())
    try:
        with open(path, "wb") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def load_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint; a file that cannot be read, ends early, runs on
    past its last parameter or is otherwise malformed raises
    ``ConfigurationError``."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read checkpoint {path}: {exc.strerror or exc}"
        ) from None
    buf = io.BytesIO(raw)

    def take(n: int) -> bytes:
        at = buf.tell()
        if n > len(raw) - at:
            raise ConfigurationError(
                f"{path}: checkpoint truncated: {n} bytes needed at offset {at}, "
                f"file has {len(raw)}"
            )
        return buf.read(n)

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    def text(n: int) -> str:
        try:
            return take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise ConfigurationError(f"{path}: corrupt checkpoint text") from None

    if buf.read(len(_MAGIC)) != _MAGIC:
        raise ConfigurationError(f"{path} is not a checkpoint file")
    (version,) = unpack("<I")
    if version != _VERSION:
        raise ConfigurationError(f"unsupported checkpoint version {version}")
    (cfg_len,) = unpack("<I")
    config_text = text(cfg_len)
    epoch, step = unpack("<QQ")
    (count,) = unpack("<I")
    params: dict[str, np.ndarray] = {}
    exempt: set[str] = set()
    for _ in range(count):
        (nlen,) = unpack("<H")
        name = text(nlen)
        (rank,) = unpack("<B")
        shape = unpack(f"<{rank}I")
        (is_exempt,) = unpack("<B")
        blob = take(8 * math.prod(shape))
        try:
            params[name] = np.frombuffer(blob, dtype="<f8").reshape(shape).copy()
        except ValueError:
            raise ConfigurationError(f"{path}: corrupt shape {shape} for {name!r}") from None
        if is_exempt:
            exempt.add(name)
    if buf.tell() != len(raw):
        raise ConfigurationError(f"{path}: {len(raw) - buf.tell()} trailing bytes")
    return Checkpoint(params, exempt, config_text, epoch, step)
