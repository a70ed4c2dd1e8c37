"""Joint training: the weighted two-term loss, SGD with momentum and weight
decay, the epoch loop and ``.npz`` checkpoints."""

from __future__ import annotations

import io
import math
import zipfile
import zlib
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

_VERSION = 2
# what np.load and its member reads raise on bad bytes (a bad offset: OSError from seek)
_READ_ERRORS = (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError,
                RuntimeError, ValueError, OverflowError, MemoryError, OSError)
# the npy header readers of the format versions a checkpoint member may use
_HEADER_READERS = {(1, 0): np.lib.format.read_array_header_1_0,
                   (2, 0): np.lib.format.read_array_header_2_0}


def _check_declared_size(archive: zipfile.ZipFile, info: zipfile.ZipInfo) -> None:
    """Raise ValueError if the npy header of member ``info`` declares more
    array bytes than the member holds: numpy allocates the declared array
    before it reads any data."""
    with archive.open(info) as fp:
        version = np.lib.format.read_magic(fp)
        if version not in _HEADER_READERS:
            raise ValueError(f"member {info.filename!r} has npy format version {version}")
        shape, _, dtype = _HEADER_READERS[version](fp)
    if math.prod(shape) * dtype.itemsize > info.file_size:
        raise ValueError(f"member {info.filename!r} declares shape {shape} of {dtype.str}"
                         f" in {info.file_size} bytes")


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
    """An uncompressed ``.npz`` archive with the members ``version`` (2),
    ``config`` (the config text), ``counters`` (epoch and step as ``<u8``),
    ``exempt`` (the sorted names of the decay-exempt parameters) and one
    ``<f8`` array per parameter, in name order. A file that cannot be
    written raises ``ConfigurationError``."""
    exempt = sorted(n for n, p in model.params.items() if p.weight_decay_exempt)
    buf = io.BytesIO()  # given a path, np.savez would append ".npz" to it
    np.savez(buf, version=np.array(_VERSION, "<u8"), config=np.array(config_text),
             counters=np.array([epoch, step], "<u8"), exempt=np.array(exempt, str),
             **{name: np.asarray(p.data, "<f8") for name, p in sorted(model.params.items())})
    try:
        with open(path, "wb") as fh:
            fh.write(buf.getbuffer())
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def load_checkpoint(path) -> Checkpoint:
    """Read a ``save_checkpoint`` archive. A file that cannot be read, is not
    a zip archive that ends with its end record, has a member whose npy
    header declares more bytes than it holds, or lacks a member or has one
    of the wrong type raises ``ConfigurationError``."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ConfigurationError(f"cannot read checkpoint {path}: {exc.strerror or exc}") from None
    with fh:
        if fh.read(4) != b"PK\x03\x04":
            raise ConfigurationError(f"{path} is not a checkpoint file (an .npz archive;"
                                     " version 1 files no longer load: retrain)")
        # zipfile also accepts an end record that junk follows; a checkpoint
        # ends with its end record, which has no comment
        fh.seek(max(fh.seek(0, io.SEEK_END) - 22, 0))
        end = fh.read()
        if len(end) < 22 or end[:4] != b"PK\x05\x06" or end[-2:] != b"\0\0":
            raise ConfigurationError(f"{path}: checkpoint truncated or with trailing bytes")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as npz:
                for info in npz.zip.infolist():
                    _check_declared_size(npz.zip, info)
                members = {name: npz[name] for name in npz.files}
        except _READ_ERRORS as exc:
            detail = " ".join(str(exc).split()) or type(exc).__name__
            raise ConfigurationError(f"{path}: corrupt checkpoint: {detail}") from None

    def member(name: str, dtype: str, ndim: int | None = None) -> np.ndarray:
        arr = members.pop(name, None)
        if not (isinstance(arr, np.ndarray) and arr.dtype.str.startswith(dtype)
                and ndim in (None, arr.ndim)):
            raise ConfigurationError(f"{path}: checkpoint member {name!r} is not {dtype} data")
        return arr

    version = member("version", "<u8", 0)
    if version != _VERSION:
        raise ConfigurationError(f"unsupported checkpoint version {version}")
    config, counters = member("config", "<U", 0), member("counters", "<u8", 1)
    exempt = set(member("exempt", "<U", 1).tolist())
    params = {name: member(name, "<f8") for name in list(members)}
    if len(counters) != 2 or not exempt <= params.keys():
        raise ConfigurationError(f"{path}: corrupt checkpoint counters or exempt names")
    return Checkpoint(params, exempt, str(config), int(counters[0]), int(counters[1]))
