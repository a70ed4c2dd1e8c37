"""Model assembly: one parameter set covering backbone, FACM, CTCM, fusion.
A branch whose config is None (the paper's w/o-FM and w/o-CM ablations)
gets no parameters."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ctcm as ctcm_mod
from . import encoder as enc_mod
from . import facm as facm_mod
from .ctcm import CtcmConfig
from .encoder import BackboneConfig
from .errors import ConfigurationError
from .facm import FacmConfig
from .tensor import Parameter, Tensor


@dataclass
class ModelConfig:
    window_length: int
    backbone: BackboneConfig
    facm: FacmConfig | None = field(default_factory=FacmConfig)
    ctcm: CtcmConfig | None = field(default_factory=CtcmConfig)  # with fusion

    def __post_init__(self):
        # FACM's rfft needs two steps, and no CTCM kernel may outrun the window
        T = self.window_length
        if T < 2:
            raise ConfigurationError(f"window.length must be >= 2, got {T}")
        if self.ctcm is not None and self.ctcm.kernels[-1] > T:
            raise ConfigurationError(
                f"ctcm.kernels: kernel {self.ctcm.kernels[-1]} exceeds window.length {T}"
            )


class Model:
    """Parameter container plus the forward paths of the pipeline."""

    def __init__(self, config: ModelConfig, params: dict[str, Parameter]):
        self.config = config
        self.params = params

    @classmethod
    def build(cls, config: ModelConfig, init_seed: int = 0) -> "Model":
        K = config.backbone.output_dim
        params = {}
        params.update(enc_mod.make_backbone(config.backbone, init_seed))
        if config.facm is not None:
            params.update(facm_mod.make_facm_params(K, config.window_length, init_seed + 1))
        if config.ctcm is not None:
            params.update(ctcm_mod.make_ctcm_params(K, config.ctcm, init_seed + 2))
        return cls(config, params)

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def encode(self, x: Tensor, training: bool = False, rng_seed: int = 0) -> Tensor:
        return enc_mod.encode(x, self.params, self.config.backbone, training, rng_seed)

    def facm(
        self, r: Tensor, training: bool = False, rng_seed: int = 0
    ) -> tuple[Tensor, Tensor]:
        return facm_mod.facm_apply(r, self.params, self.config.facm, training, rng_seed)

    def ctcm(self, r: Tensor) -> Tensor:
        return ctcm_mod.ctcm_forward(r, self.config.ctcm, self.params)

    def fuse(self, h_time: Tensor, h_freq: Tensor) -> Tensor:
        return ctcm_mod.fuse(h_time, h_freq, self.params)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        unknown = sorted(state.keys() - self.params.keys())
        if unknown:
            raise ConfigurationError(f"checkpoint has unknown parameters {unknown}")
        for name, p in self.params.items():
            if name not in state:
                raise ConfigurationError(f"checkpoint is missing parameter {name!r}")
            if state[name].shape != p.data.shape:
                raise ConfigurationError(
                    f"parameter {name!r}: checkpoint shape {state[name].shape} "
                    f"!= model shape {p.data.shape}"
                )
            p.data = state[name].astype(np.float64).copy()
