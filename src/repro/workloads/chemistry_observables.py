"""H2 energy-assertion workloads: observable breakpoints on chemistry circuits.

The observables subsystem turns the chemistry stack's energy evaluations into
first-class breakpoints: ``assert_observable(q, H2, expectation, tolerance)``
checks a molecular energy *inside* the program, through the same grouped
measurement settings a hardware run would use.  The scenarios here follow the
:mod:`repro.bugs` convention — a correct/buggy program pair carrying the
identical assertion, with the buggy variant violating it:

* ``hf_wrong_occupation`` — Hartree–Fock preparation (X gates only, so fully
  Clifford: the stabilizer backend evaluates the assertion *exactly* with
  zero sampling shots and the static analyzer proves/refutes it outright).
  The bug occupies the anti-bonding orbitals instead, landing on the doubly
  excited configuration 1.58 Ha above the reference.
* ``vqe_flipped_theta`` — the UCCD ansatz at the optimal angle asserts the
  ground-state energy; the bug flips the sign of theta, rotating *away* from
  the ground state (+0.08 Ha).
* ``trotter_overrotated_doubles`` — Trotterised evolution of the HF state
  conserves ``<H>`` up to the Trotter error (~4 mHa at the chosen step
  count); the bug triples the double-excitation coefficients in the evolved
  Hamiltonian, breaking conservation by ~0.17 Ha.

Tolerances are chosen so the correct variants sit comfortably inside the
band while the buggy deviations exceed it by at least 3x — the same margin
discipline the chi-square scenarios in :mod:`repro.bugs.injector` follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..chemistry.h2 import (
    ELECTRON_ASSIGNMENTS,
    assignment_expectation_energy,
    build_h2_qubit_hamiltonian,
    two_electron_eigenvalues,
)
from ..chemistry.trotter import append_evolution
from ..chemistry.vqe import build_uccd_ansatz_program
from ..core.config import RunConfig
from ..core.session import Session
from ..lang.program import Program
from ..observables.pauli import PauliString, PauliSum
from .ensembles import _rate_row, _session_for

__all__ = [
    "h2_hamiltonian",
    "hf_energy",
    "ground_energy",
    "build_hf_energy_program",
    "build_vqe_energy_program",
    "build_trotter_energy_program",
    "ObservableScenario",
    "OBSERVABLE_SCENARIOS",
    "observable_scenario_names",
    "get_observable_scenario",
    "observable_detection_sweep",
]

#: UCCD angle minimising the H2 energy (from ``H2VQESolver.minimize()``).
OPTIMAL_THETA = 0.1130409

_CACHE: dict = {}


def h2_hamiltonian() -> PauliSum:
    """The 15-term Jordan–Wigner H2 Hamiltonian (memoised)."""
    if "hamiltonian" not in _CACHE:
        _CACHE["hamiltonian"] = build_h2_qubit_hamiltonian()
    return _CACHE["hamiltonian"]


def hf_energy() -> float:
    """Exact ``<HF|H|HF>`` of the Hartree–Fock reference configuration."""
    if "hf" not in _CACHE:
        _CACHE["hf"] = assignment_expectation_energy(
            h2_hamiltonian(), ELECTRON_ASSIGNMENTS["G"]
        )
    return _CACHE["hf"]


def ground_energy() -> float:
    """Exact two-electron ground-state energy of the H2 Hamiltonian."""
    if "ground" not in _CACHE:
        _CACHE["ground"] = float(two_electron_eigenvalues(h2_hamiltonian())[0])
    return _CACHE["ground"]


def build_hf_energy_program(
    buggy: bool = False, tolerance: float = 0.05, name: "str | None" = None
) -> Program:
    """Hartree–Fock preparation with an exact-path energy breakpoint.

    The preparation is X gates only — Clifford — so on the stabilizer (or
    ``auto``) backend the breakpoint evaluates ``<H>`` exactly from the
    tableau with zero sampling shots, and under ``static_preflight=True``
    the abstract interpreter proves (or, buggy, refutes) it before any
    simulation.  The bug occupies the anti-bonding spin orbitals instead of
    the bonding ones.
    """
    program = Program(
        name or ("h2_hf_wrong_occupation" if buggy else "h2_hf_energy")
    )
    register = program.qreg("q", 4)
    occupation = ELECTRON_ASSIGNMENTS["E3" if buggy else "G"]
    for index, bit in enumerate(occupation):
        if bit:
            program.x(register[index])
    program.assert_observable(
        register,
        h2_hamiltonian(),
        expectation=hf_energy(),
        tolerance=tolerance,
        label="HF reference energy",
    )
    program.measure(register, label="orbitals")
    return program


def build_vqe_energy_program(
    theta: float = OPTIMAL_THETA,
    buggy: bool = False,
    tolerance: float = 0.02,
    name: "str | None" = None,
) -> Program:
    """UCCD ansatz asserting the ground-state energy at the optimal angle.

    The bug flips the sign of theta — the classic transcription error when
    porting an excitation generator — rotating the reference away from the
    ground state (+0.08 Ha, four times the tolerance band).
    """
    if buggy:
        theta = -theta
    program = build_uccd_ansatz_program(
        theta, name=name or ("h2_vqe_flipped_theta" if buggy else "h2_vqe_energy")
    )
    register = program.registers[0]
    program.assert_observable(
        register,
        h2_hamiltonian(),
        expectation=ground_energy(),
        tolerance=tolerance,
        label="VQE ground energy",
    )
    program.measure(register, label="orbitals")
    return program


def _overrotated_doubles(hamiltonian: PauliSum, scale: float = 3.0) -> PauliSum:
    """The evolved Hamiltonian with double-excitation coefficients scaled."""
    return PauliSum(
        [
            PauliString.from_masks(
                *term.symplectic_masks(),
                num_qubits=term.num_qubits,
                coefficient=term.coefficient * (scale if term.weight() == 4 else 1.0),
            )
            for term in hamiltonian.terms
        ]
    )


def build_trotter_energy_program(
    time: float = 0.8,
    trotter_steps: int = 4,
    buggy: bool = False,
    tolerance: float = 0.02,
    name: "str | None" = None,
) -> Program:
    """Trotterised HF evolution asserting energy conservation.

    Exact evolution under ``H`` conserves ``<H>`` for *any* initial state;
    first-order Trotterisation at these settings keeps it within ~4 mHa.
    The bug triples the double-excitation coefficients of the Hamiltonian
    driving the circuit (an over-rotation of those slices), pushing the
    final energy ~0.17 Ha off the conserved value.
    """
    program = Program(
        name
        or ("h2_trotter_overrotated_doubles" if buggy else "h2_trotter_energy")
    )
    register = program.qreg("q", 4)
    for index, bit in enumerate(ELECTRON_ASSIGNMENTS["G"]):
        if bit:
            program.x(register[index])
    evolved = (
        _overrotated_doubles(h2_hamiltonian()) if buggy else h2_hamiltonian()
    )
    append_evolution(
        program, evolved, time, list(register), trotter_steps=trotter_steps
    )
    program.assert_observable(
        register,
        h2_hamiltonian(),
        expectation=hf_energy(),
        tolerance=tolerance,
        label="energy conserved under Trotter evolution",
    )
    program.measure(register, label="orbitals")
    return program


@dataclass(frozen=True)
class ObservableScenario:
    """A correct/buggy chemistry program pair asserting a Pauli expectation."""

    name: str
    description: str
    #: ``build(buggy) -> Program``.
    build: Callable[[bool], Program]
    #: Whether the correct program is Clifford-only (stabilizer-exact path).
    clifford: bool
    ensemble_size: int = 8

    def build_correct(self) -> Program:
        return self.build(False)

    def build_buggy(self) -> Program:
        return self.build(True)


def _build_hf(buggy: bool) -> Program:
    return build_hf_energy_program(buggy=buggy)


def _build_vqe(buggy: bool) -> Program:
    return build_vqe_energy_program(buggy=buggy)


def _build_trotter(buggy: bool) -> Program:
    return build_trotter_energy_program(buggy=buggy)


OBSERVABLE_SCENARIOS: dict[str, ObservableScenario] = {
    scenario.name: scenario
    for scenario in [
        ObservableScenario(
            name="hf_wrong_occupation",
            description="HF preparation occupying the anti-bonding orbitals",
            build=_build_hf,
            clifford=True,
        ),
        ObservableScenario(
            name="vqe_flipped_theta",
            description="UCCD ansatz with the excitation angle sign-flipped",
            build=_build_vqe,
            clifford=False,
        ),
        ObservableScenario(
            name="trotter_overrotated_doubles",
            description="Trotter evolution with tripled double-excitation terms",
            build=_build_trotter,
            clifford=False,
        ),
    ]
}


def observable_scenario_names() -> list[str]:
    return sorted(OBSERVABLE_SCENARIOS)


def get_observable_scenario(name: str) -> ObservableScenario:
    try:
        return OBSERVABLE_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown observable scenario {name!r}; available: "
            f"{', '.join(observable_scenario_names())}"
        ) from None


def observable_detection_sweep(
    names: "Sequence[str] | None" = None,
    trials: int = 10,
    *,
    config: "RunConfig | None" = None,
    session: "Session | None" = None,
) -> "list[dict]":
    """Detection/false-positive rates of the observable scenarios.

    One row per scenario, on the ``auto`` backend by default so the Clifford
    scenario exercises the stabilizer-exact path while the ansatz/Trotter
    scenarios fall through to grouped sampling.
    """
    base = _session_for(
        "observable_detection_sweep", config, session,
        default_backend="auto", sweep_defaults={"ensemble_size": 8},
    )
    rows = []
    for name in names or observable_scenario_names():
        scenario = get_observable_scenario(name)
        rows.append(
            _rate_row(
                base, scenario.build_buggy, scenario.build_correct, trials,
                scenario=name,
                clifford=scenario.clifford,
                ensemble_size=base.config.ensemble_size,
            )
        )
    return rows
