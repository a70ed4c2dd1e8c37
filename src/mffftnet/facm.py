"""Frequency-aware contrastive module.

Pipeline per window: FFT of the representation over time, hard top-k
masking of low-amplitude bins (``_topk_mask``), complex linear reweighting (learnable
complex weight matrix plus per-bin complex bias), inverse FFT, dropout.
A spectrum is one real (..., c, 2K) tensor holding ``[re ‖ im]`` on its
last axis (``fourier``), so the complex product z·(W_re + i·W_im) is one
real matmul of the masked spectrum by the block matrix
[[W_re, W_im], [-W_im, W_re]]. The frequency loss takes amplitude and
phase of both views' reweighted spectra, stacked on a leading axis of 2,
and contrasts each between the views' bin rows with the shared
``tensor.info_nce`` (as CoST does, Woo et al., arXiv 2202.01575).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError
from . import tensor as tn
from .fourier import amp_phase, as_complex, irfft, rfft
from .tensor import Parameter, ParameterInit, Tensor


@dataclass
class FacmConfig:
    mask_ratio: float = 0.4
    lam: float = 0.5  # amplitude/phase balance in the frequency loss
    dropout_rate: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.mask_ratio <= 1.0:
            raise ConfigurationError(f"mask_ratio must be in (0,1], got {self.mask_ratio}")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigurationError(f"lambda must be in [0,1], got {self.lam}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError(
                f"facm.dropout: dropout rate must be in [0, 1), got {self.dropout_rate}"
            )


def make_facm_params(
    K: int, window_length: int, init_seed: int = 0
) -> dict[str, Parameter]:
    """Complex weight (K x K/2) and per-bin complex bias (c x K/2), stored
    as real/imaginary parameter pairs so both take part in autodiff."""
    c = window_length // 2 + 1
    half = K // 2
    scale = 1.0 / np.sqrt(K)
    init = ParameterInit(init_seed)
    init.add("facm.omega.re", init.rng.normal(0.0, scale, size=(K, half)))
    init.add("facm.omega.im", init.rng.normal(0.0, scale, size=(K, half)))
    init.zeros("facm.beta.re", (c, half))
    init.zeros("facm.beta.im", (c, half))
    return init.params


def _topk_mask(z: np.ndarray, mask_ratio: float) -> np.ndarray:
    """(..., c, 1) mask of a (..., c, 2K) spectrum: 1 on the k = max(1,
    floor(c*mask_ratio)) bins with the largest modulus averaged over the K
    channels, ties broken toward the lower bin, 0 elsewhere."""
    amp = np.abs(as_complex(z)).mean(axis=-1, keepdims=True)
    k = max(1, int(np.floor(amp.shape[-2] * mask_ratio)))
    mask = np.zeros(amp.shape)
    np.put_along_axis(mask, np.argsort(-amp, axis=-2, kind="stable")[..., :k, :], 1.0, axis=-2)
    return mask


def facm_apply(
    r: Tensor,
    params: dict[str, Parameter],
    cfg: FacmConfig,
    training: bool = False,
    rng_seed: int = 0,
) -> tuple[Tensor, Tensor]:
    """Returns both the time-domain output (..., T, K/2) and the
    post-masking, post-reweighting (..., c, K) spectrum ``[re ‖ im]`` the
    frequency loss consumes."""
    K = r.shape[-1]
    if params["facm.omega.re"].shape[0] != K:
        raise ContractError(
            f"FACM weights built for K={params['facm.omega.re'].shape[0]}, got K={K}"
        )
    spec = rfft(r)
    masked = spec * Tensor(_topk_mask(spec.data, cfg.mask_ratio))
    w_re, w_im = params["facm.omega.re"], params["facm.omega.im"]
    w = tn.concat([tn.concat([w_re, w_im]), tn.concat([-w_im, w_re])], axis=0)
    bias = tn.concat([params["facm.beta.re"], params["facm.beta.im"]])
    weighted = tn.matmul(masked, w) + bias
    h_hat = irfft(weighted, r.shape[-2])
    h_hat = tn.dropout(h_hat, cfg.dropout_rate, [rng_seed, 29], training)
    return h_hat, weighted


def freq_contrastive_loss(z: Tensor, lam: float) -> tuple[Tensor, Tensor, Tensor]:
    """(L_amp, L_phase, L_freq), L_freq = lam*L_amp + (1-lam)*L_phase, of a
    (2, ..., c, 2d) spectrum holding the two views on its leading axis, as
    ``facm_apply`` returns it. Each term is the InfoNCE of view 0's bin rows
    against view 1's, averaged over the bins and any batch axes."""
    if z.ndim < 3 or z.shape[0] != 2:
        raise ContractError(f"frequency loss needs a (2, ..., c, 2d) spectrum, got {z.shape}")
    l_amp, l_phase = (tn.tmean(tn.info_nce(*tn.unstack(f))) for f in amp_phase(z))
    l_freq = l_amp * lam + l_phase * (1.0 - lam)
    return l_amp, l_phase, l_freq
