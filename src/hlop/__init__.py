"""Continual learning for spiking networks via lateral Hebbian circuits.

Lateral "subspace neurons" learn the principal subspace of each layer's
presynaptic activity with a two-stage Hebbian/anti-Hebbian rule and project
activity traces off the consolidated subspace, so weight updates for new
tasks cannot disturb directions earlier tasks relied on.
"""

from .lateral import LateralSubspace, quantize_subspace_output
from .linalg import (
    kaiming_uniform_init,
    make_rng,
    rowspace_projector,
    subspace_alignment_error,
    topk_principal,
)
from .spiking import (
    Layer,
    LayerState,
    NeuronConfig,
    lif_step,
    rate_forward_transform,
    surrogate_derivative,
    unfold_patches,
)
from .training import (
    ErrorPropConfig,
    GradPacket,
    LayerGrad,
    SpikingNet,
    backprop_error,
    bptt_sg_backward,
    ottt_backward,
    rate_backward,
    sgd_update,
)
from .config import ExperimentConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "ErrorPropConfig",
    "ExperimentConfig",
    "GradPacket",
    "Layer",
    "LayerGrad",
    "LayerState",
    "LateralSubspace",
    "NeuronConfig",
    "SpikingNet",
    "backprop_error",
    "bptt_sg_backward",
    "kaiming_uniform_init",
    "lif_step",
    "load_config",
    "make_rng",
    "ottt_backward",
    "quantize_subspace_output",
    "rate_backward",
    "rate_forward_transform",
    "rowspace_projector",
    "sgd_update",
    "subspace_alignment_error",
    "surrogate_derivative",
    "topk_principal",
    "unfold_patches",
]
