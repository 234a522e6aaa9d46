"""Variational quantum eigensolver (VQE) for the H2 benchmark.

Section 5.2.1 of the paper notes that once the Hamiltonian subroutine is
built, it "can be used in a variety of quantum algorithms spanning different
primitives", naming phase estimation, **variational quantum eigensolvers** and
adiabatic algorithms.  The phase-estimation path lives in
:mod:`repro.chemistry.ipe_energy`; this module adds the VQE path:

* a one-parameter unitary coupled-cluster doubles (UCCD) ansatz, which is
  exact for H2 in a minimal basis — the ground state is a rotation between
  the Hartree-Fock configuration and the doubly excited configuration;
* energy evaluation either from the exact statevector expectation value or
  from simulated measurement ensembles (one basis-rotated circuit per Pauli
  term, majority statistics over a finite number of shots), the way a real
  device would estimate it;
* a derivative-free classical outer loop (golden-section search) so the whole
  stack stays dependency-light.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..lang.program import Program
from ..observables.estimation import setting_eigenvalue_products
from ..observables.exact import statevector_expectation
from ..observables.grouping import MeasurementSetting
from ..observables.pauli import PauliString, PauliSum
from ..sim.statevector import Statevector
from .fermion import FermionOperator
from .h2 import ELECTRON_ASSIGNMENTS, WHITFIELD_INTEGRALS, build_h2_qubit_hamiltonian
from .jordan_wigner import jordan_wigner
from .trotter import append_pauli_evolution

__all__ = [
    "uccd_generator",
    "build_uccd_ansatz_program",
    "H2VQESolver",
    "VQEResult",
]


def uccd_generator(num_qubits: int = 4) -> PauliSum:
    """The anti-Hermitian double-excitation generator, Jordan-Wigner mapped.

    ``G = a3^dag a2^dag a1 a0  -  a0^dag a1^dag a2 a3`` (anti-Hermitian), so
    ``exp(theta * G)`` is unitary and rotates the Hartree-Fock configuration
    |1100> (qubits 0 and 1 occupied) into the doubly excited |0011>.
    The returned PauliSum is ``i * G``, which is Hermitian with real
    coefficients and can therefore be fed to the Trotter circuits as
    ``exp(-i * theta * (iG))``.
    """
    excitation = FermionOperator.from_term(
        ((3, True), (2, True), (1, False), (0, False)), 1.0
    )
    generator = excitation - excitation.hermitian_conjugate()
    hermitian_generator = jordan_wigner(generator * 1.0j, num_qubits=num_qubits)
    return hermitian_generator.simplify()


def build_uccd_ansatz_program(theta: float, name: str = "uccd_ansatz") -> Program:
    """The UCCD ansatz circuit |psi(theta)> = exp(-i theta (iG)) |HF>.

    The exponential is applied term by term (first-order Trotter); for this
    generator the term-by-term product still sweeps the full two-dimensional
    subspace spanned by the Hartree-Fock and doubly-excited configurations, so
    the ansatz remains exact for H2.
    """
    program = Program(name)
    system = program.qreg("q", 4)
    # Hartree-Fock reference: both electrons in the bonding spin orbitals.
    for index, bit in enumerate(ELECTRON_ASSIGNMENTS["G"]):
        if bit:
            program.x(system[index])
    for term in uccd_generator().terms:
        append_pauli_evolution(program, term, theta * term.coefficient.real, list(system))
    return program


@dataclass
class VQEResult:
    """Result of a VQE minimisation."""

    theta: float
    energy: float
    evaluations: int
    history: list[tuple[float, float]]
    converged: bool

    def as_row(self) -> dict:
        return {
            "theta": self.theta,
            "energy": self.energy,
            "evaluations": self.evaluations,
            "converged": self.converged,
        }


class H2VQESolver:
    """Variational eigensolver for the H2 qubit Hamiltonian."""

    def __init__(
        self,
        hamiltonian: PauliSum | None = None,
        shots: int = 0,
        rng: np.random.Generator | int | None = None,
    ):
        self.hamiltonian = (
            hamiltonian if hamiltonian is not None else build_h2_qubit_hamiltonian(WHITFIELD_INTEGRALS)
        )
        self.shots = int(shots)
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    # ------------------------------------------------------------------
    # Energy evaluation
    # ------------------------------------------------------------------

    def prepare_state(self, theta: float) -> Statevector:
        return build_uccd_ansatz_program(theta).simulate()

    def energy(self, theta: float) -> float:
        """Energy of the ansatz state, exact or estimated from measurements."""
        if self.shots <= 0:
            return statevector_expectation(self.prepare_state(theta), self.hamiltonian)
        return self._sampled_energy(theta)

    def _sampled_energy(self, theta: float) -> float:
        """Estimate <H> by measuring each Pauli term with a finite shot budget.

        Every non-identity term is measured in its own basis-rotated circuit,
        exactly as a hardware VQE would do; the identity coefficient is added
        classically.
        """
        total = self.hamiltonian.identity_coefficient().real
        for term in self.hamiltonian.non_identity_terms():
            total += term.coefficient.real * self._sampled_pauli_expectation(theta, term)
        return float(total)

    def _sampled_pauli_expectation(self, theta: float, term: PauliString) -> float:
        program = build_uccd_ansatz_program(theta, name="uccd_measure")
        system = program.registers[0]
        support = term.support()
        for qubit_index in support:
            op = term.ops[qubit_index]
            if op == "X":
                program.h(system[qubit_index])
            elif op == "Y":
                program.rx(system[qubit_index], math.pi / 2.0)
        state = program.simulate()
        indices = [program.qubit_index(system[q]) for q in support]
        samples = state.sample(indices, shots=self.shots, rng=self.rng)
        # The eigenvalue-product estimator is the observables subsystem's;
        # the rotation fragments above stay on the legacy H / RX(pi/2)
        # convention so seeded histories remain byte-identical.
        setting = MeasurementSetting(basis=term.ops, term_indices=(0,))
        products = setting_eigenvalue_products(setting, PauliSum([term]), samples)
        return float(np.mean(products[0]))

    # ------------------------------------------------------------------
    # Classical outer loop
    # ------------------------------------------------------------------

    def minimize(
        self,
        lower: float = -math.pi / 2,
        upper: float = math.pi / 2,
        tolerance: float = 1e-4,
        max_evaluations: int = 200,
        energy_function: Callable[[float], float] | None = None,
    ) -> VQEResult:
        """Golden-section search for the minimising ansatz angle."""
        evaluate = energy_function or self.energy
        history: list[tuple[float, float]] = []

        def tracked(theta: float) -> float:
            value = evaluate(theta)
            history.append((theta, value))
            return value

        inverse_golden = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = float(lower), float(upper)
        c = b - inverse_golden * (b - a)
        d = a + inverse_golden * (b - a)
        fc, fd = tracked(c), tracked(d)
        while abs(b - a) > tolerance and len(history) < max_evaluations:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - inverse_golden * (b - a)
                fc = tracked(c)
            else:
                a, c, fc = c, d, fd
                d = a + inverse_golden * (b - a)
                fd = tracked(d)
        theta = (a + b) / 2.0
        energy = tracked(theta)
        return VQEResult(
            theta=theta,
            energy=energy,
            evaluations=len(history),
            history=history,
            converged=abs(b - a) <= tolerance,
        )

    # ------------------------------------------------------------------

    def exact_ground_energy(self) -> float:
        return self.hamiltonian.ground_state_energy()

    def energy_landscape(self, thetas) -> list[tuple[float, float]]:
        """Energies over a sweep of ansatz angles (for plots / convergence checks)."""
        return [(float(theta), self.energy(float(theta))) for theta in thetas]
