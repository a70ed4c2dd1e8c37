"""Self-supervised time-series representation learning with frequency- and
time-domain contrastive modules, on a self-contained float64 autodiff
engine."""

from .augment import AugmentConfig, augment_view, series_stats
from .ctcm import CtcmConfig
from .encoder import BackboneConfig
from .facm import FacmConfig
from .model import Model, ModelConfig
from .tensor import Parameter, Tensor
from .training import TrainConfig, fit, total_loss

__all__ = [
    "AugmentConfig",
    "BackboneConfig",
    "CtcmConfig",
    "FacmConfig",
    "Model",
    "ModelConfig",
    "Parameter",
    "Tensor",
    "TrainConfig",
    "augment_view",
    "fit",
    "series_stats",
    "total_loss",
]
