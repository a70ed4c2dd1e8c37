"""Backbone encoder: linear lift, residual dilated-convolution blocks,
per-timestep projection to the K-dimensional latent space.

Block i computes y = x + conv2(act(conv1(x))) with both convolutions
causal at dilation 2^i, so the stack's receptive field doubles per block
while output length stays T. With kernel size k and n blocks, output row t
reads input rows t - R + 1 .. t, where

    R = 1 + 2·(k − 1)·(2^n − 1)

is ``BackboneConfig.receptive_field``: 61 for the desk backbone (k = 3,
n = 4) and 1021 for the default one (n = 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError, DimensionError
from . import tensor as tn
from .tensor import Parameter, ParameterInit, Tensor


@dataclass
class BackboneConfig:
    input_dim: int
    hidden_dim: int = 32
    output_dim: int = 320
    num_blocks: int = 8
    kernel_size: int = 3
    dropout_rate: float = 0.0
    activation: str = "silu"  # "gelu" is the ablation switch

    def __post_init__(self):
        if self.hidden_dim < 1 or self.output_dim < 1:
            raise ConfigurationError(
                f"backbone dimensions must be >= 1, got hidden {self.hidden_dim}, "
                f"output {self.output_dim}"
            )
        if self.output_dim % 2 != 0:
            raise ConfigurationError("backbone output dimension must be even")
        if self.num_blocks < 1 or self.kernel_size < 1:
            raise ConfigurationError("num_blocks and kernel_size must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError(
                f"backbone.dropout: dropout rate must be in [0, 1), got {self.dropout_rate}"
            )
        if self.activation not in ("silu", "gelu"):
            raise ConfigurationError(f"unknown activation {self.activation!r}")

    @property
    def receptive_field(self) -> int:
        """Input rows that one output row depends on (derived, not a key)."""
        return 1 + 2 * (self.kernel_size - 1) * (2**self.num_blocks - 1)


def make_backbone(cfg: BackboneConfig, init_seed: int = 0) -> dict[str, Parameter]:
    """Kaiming-uniform weights, zero biases; names enumerate the blocks."""
    D, H, K, k = cfg.input_dim, cfg.hidden_dim, cfg.output_dim, cfg.kernel_size
    init = ParameterInit(init_seed)
    init.kaiming("backbone.lin.w", (D, H), D)
    init.zeros("backbone.lin.b", H)
    for i in range(cfg.num_blocks):
        for conv in ("conv1", "conv2"):
            init.kaiming(f"backbone.block{i}.{conv}.w", (k, H, H), k * H)
            init.zeros(f"backbone.block{i}.{conv}.b", H)
    init.kaiming("backbone.proj.w", (H, K), H)
    init.zeros("backbone.proj.b", K)
    return init.params


def encode(
    x: Tensor,
    params: dict[str, Parameter],
    cfg: BackboneConfig,
    training: bool = False,
    rng_seed: int = 0,
) -> Tensor:
    """Map (..., T, D) inputs to (..., T, K) representations."""
    if x.shape[-1] != cfg.input_dim:
        raise DimensionError(
            f"encoder expects {cfg.input_dim} features, got {x.shape[-1]}"
        )
    act = tn.silu if cfg.activation == "silu" else tn.gelu
    h = tn.matmul(x, params["backbone.lin.w"]) + params["backbone.lin.b"]
    for i in range(cfg.num_blocks):
        dilation = 2**i
        z = tn.causal_conv1d(h, params[f"backbone.block{i}.conv1.w"], dilation)
        z = act(z + params[f"backbone.block{i}.conv1.b"])
        z = tn.dropout(z, cfg.dropout_rate, [rng_seed, 17, i], training)
        z = tn.causal_conv1d(z, params[f"backbone.block{i}.conv2.w"], dilation)
        h = h + z + params[f"backbone.block{i}.conv2.b"]
    return tn.matmul(h, params["backbone.proj.w"]) + params["backbone.proj.b"]
