"""Joint training: the weighted two-term loss, SGD with momentum and weight
decay, the epoch loop, binary checkpoints, and the fine-tune path."""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import ctcm as ctcm_mod
from . import facm as facm_mod
from . import tensor as tn
from .augment import AugmentConfig, augment_view
from .errors import ConfigurationError, NumericError
from .fourier import ComplexSpectrum
from .model import Model
from .tensor import Parameter, Tensor


@dataclass
class AblationFlags:
    disable_augmentation: bool = False
    disable_facm: bool = False  # drops the frequency branch and its loss
    disable_ctcm: bool = False  # drops the time branch and its loss
    activation_gelu: bool = False  # applied at model build time


@dataclass
class TrainConfig:
    gamma1: float = 1.0
    gamma2: float = 1.0
    learning_rate: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 50
    batch_size: int = 8
    seed: int = 0
    ablation: AblationFlags = field(default_factory=AblationFlags)

    def __post_init__(self):
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ConfigurationError("loss weights must be non-negative")
        if self.batch_size < 2:
            raise ConfigurationError(
                "batch_size must be >= 2: the contrastive losses need negatives"
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
    parameter and one dropout seed per step. Ablation flags replace a
    branch's output with zeros and drop its loss term.
    """
    flags = cfg.ablation
    if flags.disable_augmentation:
        views = np.stack([batch, batch])
    else:
        base = 2 * step * len(batch)
        views = np.stack(
            [
                [augment_view(w, aug_cfg, base + 2 * i + v) for i, w in enumerate(batch)]
                for v in (0, 1)
            ]
        )
    r = model.encode(Tensor(views), training, rng_seed=step)

    if flags.disable_facm:
        l_freq = Tensor(0.0)
        h_hat = Tensor(np.zeros(r.shape[:-1] + (model.config.backbone.output_dim // 2,)))
    else:
        h_hat, s = model.facm(r, training, rng_seed=step)
        s1, s2 = (
            ComplexSpectrum(re=re, im=im, origin_length=s.origin_length)
            for re, im in zip(tn.unstack(s.re), tn.unstack(s.im))
        )
        _, _, l_freq = facm_mod.freq_contrastive_loss(s1, s2, model.config.facm.lam)

    if flags.disable_ctcm:
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
    """v <- momentum*v + grad + W*param; param <- param - lr*v.
    Decay-exempt parameters skip the W term."""
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if weight_decay and not p.weight_decay_exempt:
            g = g + weight_decay * p.data
        v = velocities.get(p.name)
        v = g if v is None else momentum * v + g
        velocities[p.name] = v
        p.data = p.data - lr * v


def fit(
    train_windows: np.ndarray,
    model: Model,
    cfg: TrainConfig,
    aug_cfg: AugmentConfig,
    start_step: int = 0,
) -> list[dict]:
    """Epoch loop over shuffled mini-batches; returns per-epoch loss history."""
    if len(train_windows) < cfg.batch_size:
        raise ConfigurationError(
            f"need at least batch_size={cfg.batch_size} training windows, "
            f"got {len(train_windows)}"
        )
    velocities: dict[str, np.ndarray] = {}
    history: list[dict] = []
    step = start_step
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng([cfg.seed, 1000 + epoch])
        order = rng.permutation(len(train_windows))
        totals, times, freqs = [], [], []
        for lo in range(0, len(order) - cfg.batch_size + 1, cfg.batch_size):
            batch = train_windows[order[lo : lo + cfg.batch_size]]
            l_total, l_time, l_freq = total_loss(
                batch, model, cfg, aug_cfg, step=step, training=True
            )
            if not np.isfinite(l_total.item()):
                raise NumericError(f"non-finite loss at epoch {epoch}, step {step}")
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
    little-endian float64 parameter blobs."""
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
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


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


def fine_tune(
    checkpoint: Checkpoint,
    model: Model,
    train_windows: np.ndarray,
    cfg: TrainConfig,
    aug_cfg: AugmentConfig,
    reinit_input: bool = False,
) -> list[dict]:
    """Load pretrained parameters into ``model`` and continue fitting.

    A feature-count mismatch only touches the input linear layer; with
    ``reinit_input`` that layer keeps its fresh initialization and
    everything else is restored.
    """
    state = dict(checkpoint.params)
    lin_keys = ("backbone.lin.w", "backbone.lin.b")
    mismatch = any(
        k in state and state[k].shape != model.params[k].data.shape for k in lin_keys
    )
    if mismatch:
        if not reinit_input:
            raise ConfigurationError(
                "checkpoint input layer was trained for a different feature "
                "count; pass --reinit-input to re-initialize the input linear "
                "layer and transfer the rest"
            )
        for k in lin_keys:
            state[k] = model.params[k].data.copy()
    model.load_state(state)
    if cfg.epochs == 0:
        return []
    return fit(train_windows, model, cfg, aug_cfg, start_step=checkpoint.step)
