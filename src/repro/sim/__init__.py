"""Quantum simulation substrate (statevector simulator replacing QX)."""

from . import clifford, gates, kernels, registry
from .backend import SimulationBackend, StatevectorBackend
from .registry import (
    BackendCapabilities,
    BackendEntry,
    backend_capabilities,
    clifford_backend_name,
    list_backends,
    make_backend,
    make_noisy_backend,
    register_backend,
    resolve_backend_name,
    unregister_backend,
)
from .clifford import NotCliffordGateError
from .density import (
    DensityMatrix,
    entanglement_entropy,
    is_product_state,
    purity,
    reduced_density_matrix,
    schmidt_coefficients,
)
from .density_backend import DensityMatrixBackend
from .measurement import MeasurementEnsemble, ReadoutErrorModel
from .noise import (
    KrausChannel,
    NoiseModel,
    PauliChannelSampler,
    PauliMixture,
    amplitude_damping,
    bit_flip,
    bit_phase_flip,
    depolarizing,
    phase_flip,
)
from .pauli_frame import PauliFrameSet
from .stabilizer_backend import HybridCliffordBackend, StabilizerBackend
from .statevector import Statevector
from .trajectory_backend import TrajectoryNoiseBackend, spawn_trajectory_streams

__all__ = [
    "gates",
    "kernels",
    "clifford",
    "registry",
    "SimulationBackend",
    "StatevectorBackend",
    "DensityMatrixBackend",
    "StabilizerBackend",
    "HybridCliffordBackend",
    "TrajectoryNoiseBackend",
    "spawn_trajectory_streams",
    "PauliFrameSet",
    "NotCliffordGateError",
    "BackendCapabilities",
    "BackendEntry",
    "backend_capabilities",
    "clifford_backend_name",
    "list_backends",
    "make_noisy_backend",
    "resolve_backend_name",
    "unregister_backend",
    "register_backend",
    "make_backend",
    "Statevector",
    "DensityMatrix",
    "MeasurementEnsemble",
    "ReadoutErrorModel",
    "KrausChannel",
    "NoiseModel",
    "PauliMixture",
    "PauliChannelSampler",
    "amplitude_damping",
    "bit_flip",
    "bit_phase_flip",
    "depolarizing",
    "phase_flip",
    "reduced_density_matrix",
    "purity",
    "entanglement_entropy",
    "schmidt_coefficients",
    "is_product_state",
]
