"""Quantum measurements as instruments: channels in Kraus/Choi/superoperator
form, POVMs and post-measurement updates, sequential fusion, steering, and
the constructive split of any outcome map into an ideal square-root update
followed by a trace-preserving channel."""

from .matkit import (DEFAULT_TOL, HermitianDecomposition, SupportDecomposition,
                     Tolerances, eigh_desc, partial_trace, polar_decompose,
                     psd_sqrt, psd_support, tensor_product)
from .states import (BipartiteState, DensityOperator, Ensemble, mix, pure_ket,
                     purify, steering_povm)
from .channels import (ChoiMatrix, KrausChannel, Superoperator, adjoint,
                       apply_map, choi_from_map, completely_depolarizing,
                       compose, identity_channel, kraus_from_choi,
                       pullback_povm, superop_from_map, transpose_superoperator,
                       unitary_channel)
from .measure import (Effect, Instrument, OutcomeResult, Povm, apply_instrument,
                      from_effect_channel_pairs, from_generalized,
                      fuse_sequential, induced_povm, luders_from_povm,
                      probabilities)
from .decomposition import (Decomposition, PremiseReport, decompose, kraus_rank,
                            reconstruction_residual, verify_premise)
from . import errors, harness, serialize

__all__ = [
    "DEFAULT_TOL", "Tolerances", "HermitianDecomposition", "SupportDecomposition",
    "eigh_desc", "tensor_product", "partial_trace", "psd_sqrt", "psd_support",
    "polar_decompose",
    "DensityOperator", "Ensemble", "BipartiteState", "mix", "purify", "pure_ket",
    "steering_povm",
    "KrausChannel", "Superoperator", "ChoiMatrix", "apply_map", "superop_from_map",
    "choi_from_map", "kraus_from_choi", "compose", "adjoint", "pullback_povm",
    "identity_channel", "unitary_channel", "transpose_superoperator",
    "completely_depolarizing",
    "Effect", "Povm", "Instrument", "OutcomeResult", "probabilities",
    "induced_povm", "luders_from_povm", "from_generalized",
    "from_effect_channel_pairs", "apply_instrument", "fuse_sequential",
    "PremiseReport", "Decomposition", "verify_premise", "decompose", "kraus_rank",
    "reconstruction_residual",
    "errors", "harness", "serialize",
]
