"""From-scratch DLRM substrate: layers, losses, optimizers, and the model.

Implements everything the paper's workloads need on plain NumPy —
:class:`~repro.model.dlrm.DLRM` wires a bottom MLP, per-table embedding bags
(with both baseline and Tensor-Casted backward), a feature-interaction stage
and a top MLP into the Figure 1 topology.  The Table II configurations live
in :mod:`~repro.model.configs`.
"""

from .configs import ALL_MODELS, RM1, RM2, RM3, RM4, ModelConfig, get_model
from .dlrm import DLRM, StepStats
from .embedding import EmbeddingBag, SparseGradient
from .hot_cache import HotRowCache
from .interaction import CatInteraction, DotInteraction, interaction_output_dim
from .layers import MLP, Linear, ReLU, Sigmoid
from .loss import bce_with_logits, sigmoid
from .optim import (
    OPTIMIZERS,
    SGD,
    Adagrad,
    Adam,
    Momentum,
    Optimizer,
    RMSprop,
    make_optimizer,
    optimizer_names,
)

__all__ = [
    "ALL_MODELS",
    "OPTIMIZERS",
    "Adagrad",
    "Adam",
    "CatInteraction",
    "DLRM",
    "DotInteraction",
    "EmbeddingBag",
    "HotRowCache",
    "Linear",
    "MLP",
    "ModelConfig",
    "Momentum",
    "Optimizer",
    "ReLU",
    "RM1",
    "RM2",
    "RM3",
    "RM4",
    "RMSprop",
    "SGD",
    "Sigmoid",
    "SparseGradient",
    "StepStats",
    "bce_with_logits",
    "get_model",
    "interaction_output_dim",
    "make_optimizer",
    "optimizer_names",
    "sigmoid",
]
