"""Quantum chemistry substrate: H2 Hamiltonian, Trotterisation, energy estimation."""

from .adiabatic import (
    AdiabaticResult,
    build_diagonal_hamiltonian,
    build_occupation_hamiltonian,
    prepare_ground_state_adiabatically,
    schedule_convergence,
)
from .fermion import FermionOperator
from .h2 import (
    ASSIGNMENT_LEVELS,
    ELECTRON_ASSIGNMENTS,
    WHITFIELD_INTEGRALS,
    H2Integrals,
    assignment_expectation_energy,
    assignment_to_basis_state,
    build_h2_fermion_hamiltonian,
    build_h2_qubit_hamiltonian,
    dominant_eigenstate_energy,
    exact_eigenvalues,
    two_electron_eigenvalues,
)
from .ipe_energy import (
    EnergyEstimate,
    H2EnergyEstimator,
    precision_convergence,
    table5_rows,
    trotter_convergence,
)
from .jordan_wigner import jordan_wigner, jordan_wigner_ladder
from ..observables.pauli import PauliString, PauliSum
from .trotter import append_evolution, append_pauli_evolution, append_trotter_step
from .vqe import H2VQESolver, VQEResult, build_uccd_ansatz_program, uccd_generator

__all__ = [
    "PauliString",
    "PauliSum",
    "FermionOperator",
    "jordan_wigner",
    "jordan_wigner_ladder",
    "H2Integrals",
    "WHITFIELD_INTEGRALS",
    "ELECTRON_ASSIGNMENTS",
    "ASSIGNMENT_LEVELS",
    "assignment_to_basis_state",
    "assignment_expectation_energy",
    "build_h2_fermion_hamiltonian",
    "build_h2_qubit_hamiltonian",
    "exact_eigenvalues",
    "two_electron_eigenvalues",
    "dominant_eigenstate_energy",
    "append_pauli_evolution",
    "append_trotter_step",
    "append_evolution",
    "H2EnergyEstimator",
    "EnergyEstimate",
    "table5_rows",
    "trotter_convergence",
    "precision_convergence",
    "H2VQESolver",
    "VQEResult",
    "build_uccd_ansatz_program",
    "uccd_generator",
    "AdiabaticResult",
    "build_occupation_hamiltonian",
    "build_diagonal_hamiltonian",
    "prepare_ground_state_adiabatically",
    "schedule_convergence",
]
