"""Complementary time-domain contrastive module.

Parallel causal 1-D convolutions at several kernel sizes produce an
n x T x K stack (scales, time, channels; channels last throughout). All n
scales are one ``tensor._tap_conv`` call over the shared input: each tap of
each scale contracts the K input channels first, and its product lands,
shifted in time, in its scale's slot of the stack, which starts out
holding the biases. The multi-scale feature fusion (MSFF) block collapses
the stack to T x K/2: a 3x3 2-D convolution over (scale, time), SiLU, the
mean over the n scales (the paper's average pool spans the whole scale
axis) and a per-timestep linear map (the paper's 1x1 convolution). Fusion
concatenates the time- and frequency-domain halves and projects back to
K; the time contrastive loss ties each fused timestep to its backbone
representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError, ParameterError
from . import tensor as tn
from .tensor import Parameter, Tensor

DEFAULT_KERNELS = (1, 2, 4, 8, 16, 32, 64, 128)


@dataclass
class CtcmConfig:
    kernels: tuple[int, ...] = DEFAULT_KERNELS
    msff_hidden: int = 96

    def __post_init__(self):
        self.kernels = tuple(self.kernels)
        if not self.kernels:
            raise ConfigurationError("kernel list must be non-empty")
        if any(b <= a for a, b in zip(self.kernels, self.kernels[1:])):
            raise ConfigurationError(f"kernels must be strictly increasing: {self.kernels}")
        if self.kernels[0] < 1:
            raise ConfigurationError("kernel sizes must be >= 1")


def make_ctcm_params(
    K: int, cfg: CtcmConfig, init_seed: int = 0
) -> dict[str, Parameter]:
    rng = np.random.default_rng(init_seed)
    half = K // 2
    H = cfg.msff_hidden
    params: dict[str, Parameter] = {}

    def add(name, data, exempt=False):
        params[name] = Parameter(data, name=name, weight_decay_exempt=exempt)

    def kaiming(shape, fan_in):
        bound = np.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape)

    for kj in cfg.kernels:
        add(f"ctcm.scale{kj}.w", kaiming((kj, K, K), kj * K))
        add(f"ctcm.scale{kj}.b", np.zeros(K), exempt=True)
    add("ctcm.msff.conv1.w", kaiming((3, 3, K, H), 9 * K))
    add("ctcm.msff.conv1.b", np.zeros(H), exempt=True)
    add("ctcm.msff.conv2.w", kaiming((H, half), H))
    add("ctcm.msff.conv2.b", np.zeros(half), exempt=True)
    add("ctcm.proj.w", kaiming((half, half), half))
    add("ctcm.proj.b", np.zeros(half), exempt=True)
    add("fuse.w", kaiming((K, K), K))
    add("fuse.b", np.zeros(K), exempt=True)
    return params


def multiscale_conv(
    r: Tensor, params: dict[str, Parameter], kernels: tuple[int, ...]
) -> Tensor:
    """Stack causal depth-preserving convolutions: (..., T, K) -> (..., n, T, K).

    One ``tn._tap_conv`` call runs the taps of every scale on the shared
    input and adds each scale, over its bias, straight into its slot of the
    stack: one tape node for all n scales.
    """
    T, K = r.shape[-2:]
    for kj in kernels:
        if kj > T:
            raise ParameterError(f"kernel {kj} exceeds window length {T}")
    out = np.empty(r.shape[:-2] + (len(kernels), T, K))
    taps, biases = [], []
    for j, kj in enumerate(kernels):
        b = params[f"ctcm.scale{kj}.b"]
        out[..., j, :, :] = b.data
        biases.append((b, (..., j, slice(None), slice(None))))
        taps += tn._causal_taps(params[f"ctcm.scale{kj}.w"], T, at=(j,))
    return tn._tap_conv(r, taps, out, "multiscale_conv", biases)


def msff(h_d: Tensor, params: dict[str, Parameter]) -> Tensor:
    """(..., n, T, K) -> (..., T, K/2) via 3x3 conv / SiLU / scale mean / linear."""
    z = tn.conv2d(h_d, params["ctcm.msff.conv1.w"])
    z = tn.tmean(tn.silu(z + params["ctcm.msff.conv1.b"]), axis=-3)
    return tn.matmul(z, params["ctcm.msff.conv2.w"]) + params["ctcm.msff.conv2.b"]


def ctcm_forward(
    r: Tensor, cfg: CtcmConfig, params: dict[str, Parameter]
) -> Tensor:
    """(..., T, K) -> (..., T, K/2): multi-scale stack, MSFF, project."""
    h_t = msff(multiscale_conv(r, params, cfg.kernels), params)
    return tn.matmul(h_t, params["ctcm.proj.w"]) + params["ctcm.proj.b"]


def fuse(h_time: Tensor, h_freq: Tensor, params: dict[str, Parameter]) -> Tensor:
    """Concatenate the two K/2 halves and project back to K per timestep."""
    if h_time.shape[:-1] != h_freq.shape[:-1]:
        raise ContractError(
            f"fusion length mismatch: {h_time.shape} vs {h_freq.shape}"
        )
    h = tn.concat([h_time, h_freq], axis=-1)
    return tn.matmul(h, params["fuse.w"]) + params["fuse.b"]


def time_contrastive_loss(r: Tensor, h: Tensor) -> Tensor:
    """Per-timestep InfoNCE between the backbone representation and the
    fused representation; summed over time, averaged over the batch."""
    if r.shape != h.shape:
        raise ContractError(f"shape mismatch: {r.shape} vs {h.shape}")
    axes = (*range(h.ndim - 2), h.ndim - 1, h.ndim - 2)
    logits = tn.matmul(r, tn.transpose(h, axes))
    per_t = tn.logsumexp(logits, axis=-1) - tn.diagonal(logits)
    return tn.tmean(tn.tsum(per_t, axis=-1))
