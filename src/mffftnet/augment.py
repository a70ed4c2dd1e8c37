"""Adaptive noise augmentation: the two contrastive views of a window.

Each view multiplies every feature column by one scaling draw
eps_s ~ Normal(1, (alpha*sigma_d)^2) and adds one shift draw
eps_b ~ Normal(0, (beta*sigma_d)^2), where sigma_d is the window's own
per-feature standard deviation. One draw per feature per view, not per
timestep, so within-window temporal structure is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass
class AugmentConfig:
    alpha: float = 0.5
    beta: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ConfigurationError(
                f"augmentation strengths must be non-negative, got alpha={self.alpha}, "
                f"beta={self.beta}"
            )


def series_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and population standard deviation over time, the
    second-to-last axis of one T x D window or a stack of them."""
    x = np.asarray(x, dtype=np.float64)
    return x.mean(axis=-2), x.std(axis=-2)


def draw_factors(
    cfg: AugmentConfig, sigma: np.ndarray, draw_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (eps_s, eps_b) factor vectors for one view, seeded by
    (cfg.seed, draw_index)."""
    rng = np.random.default_rng([cfg.seed, draw_index])
    eps_s = rng.normal(1.0, cfg.alpha * sigma)
    eps_b = rng.normal(0.0, cfg.beta * sigma)
    return eps_s, eps_b


def augment_view(x: np.ndarray, cfg: AugmentConfig, draw_index: int) -> np.ndarray:
    """Augmented copies of T x D windows; deterministic in
    (x, cfg, draw_index). ``x`` is one window, drawn with ``draw_index``,
    or a stack (..., T, D) whose windows are numbered from ``draw_index``
    in column-major order: in a (2, B, T, D) stack of two views, window i
    of view v draws with ``draw_index + 2i + v``. Each window gets the
    factors and bytes it would get on its own."""
    x = np.asarray(x, dtype=np.float64)
    _, sigma = series_stats(x)  # (..., D)
    lead = sigma.shape[:-1]
    index = draw_index + np.arange(int(np.prod(lead))).reshape(lead, order="F")
    draws = [
        draw_factors(cfg, s, int(i))
        for s, i in zip(sigma.reshape(-1, sigma.shape[-1]), index.ravel())
    ]
    eps_s, eps_b = (np.reshape(e, sigma.shape)[..., None, :] for e in zip(*draws))
    return eps_s * x + eps_b
