"""Trotterised time evolution circuits for qubit Hamiltonians.

The chemistry benchmark estimates eigenenergies by phase estimation of the
evolution operator ``U = exp(-i H t)``.  ``H`` arrives as a
:class:`repro.observables.pauli.PauliSum`; this module turns it into circuits:

* :func:`append_pauli_evolution` — ``exp(-i angle P)`` for a single Pauli
  string, via the usual basis-change + CNOT-parity-ladder + Rz construction;
* :func:`append_trotter_step` / :func:`append_evolution` — first-order
  Trotterisation of the full Hamiltonian, optionally *controlled* on an extra
  qubit.  The controlled version also applies the phase contributed by the
  identity component of the Hamiltonian to the control qubit; forgetting that
  phase is a classic source of systematically shifted energies, so it is
  handled here rather than left to the caller.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..lang.program import Program
from ..lang.registers import Qubit, flatten_qubits
from ..observables.pauli import PauliString, PauliSum

__all__ = [
    "append_pauli_evolution",
    "append_trotter_step",
    "append_evolution",
]


def append_pauli_evolution(
    program: Program,
    pauli: PauliString,
    angle: float,
    system_qubits: Sequence[Qubit],
    control: Qubit | None = None,
) -> Program:
    """Append ``exp(-i * angle * P)`` where ``P`` is the (unit) Pauli string.

    The string's own coefficient is ignored — fold it into ``angle`` — because
    evolution only makes sense for Hermitian (real-coefficient) terms.
    ``control`` makes the evolution conditional on a control qubit; only the
    central Rz needs to be controlled because the basis changes and parity
    ladder cancel on their own when the rotation is skipped.
    """
    system_qubits = list(system_qubits)
    if pauli.num_qubits != len(system_qubits):
        raise ValueError("Pauli string size does not match the system register")
    support = pauli.support()
    if not support:
        # exp(-i * angle * I) is a global phase; only observable when controlled.
        if control is not None:
            program.phase(control, -angle)
        return program

    # Basis changes into the Z basis.
    for qubit_index in support:
        op = pauli.ops[qubit_index]
        target = system_qubits[qubit_index]
        if op == "X":
            program.h(target)
        elif op == "Y":
            program.rx(target, math.pi / 2.0)

    # Parity ladder onto the last supported qubit.
    last = system_qubits[support[-1]]
    for qubit_index in support[:-1]:
        program.cnot(system_qubits[qubit_index], last)

    # The rotation carrying the angle (controlled when requested).
    if control is not None:
        program.crz(control, last, 2.0 * angle)
    else:
        program.rz(last, 2.0 * angle)

    # Undo the ladder and the basis changes.
    for qubit_index in reversed(support[:-1]):
        program.cnot(system_qubits[qubit_index], last)
    for qubit_index in reversed(support):
        op = pauli.ops[qubit_index]
        target = system_qubits[qubit_index]
        if op == "X":
            program.h(target)
        elif op == "Y":
            program.rx(target, -math.pi / 2.0)
    return program


def append_trotter_step(
    program: Program,
    hamiltonian: PauliSum,
    time: float,
    system_qubits: Sequence[Qubit],
    control: Qubit | None = None,
) -> Program:
    """One first-order Trotter step of ``exp(-i H time)``."""
    simplified = hamiltonian.simplify()
    identity_energy = simplified.identity_coefficient().real
    if identity_energy and control is not None:
        program.phase(control, -identity_energy * time)
    for term in simplified.non_identity_terms():
        coefficient = term.coefficient
        if abs(coefficient.imag) > 1e-10:
            raise ValueError("Hamiltonian terms must have real coefficients")
        append_pauli_evolution(
            program, term, coefficient.real * time, system_qubits, control=control
        )
    return program


def append_evolution(
    program: Program,
    hamiltonian: PauliSum,
    time: float,
    system_qubits: Sequence[Qubit],
    trotter_steps: int = 1,
    control: Qubit | None = None,
) -> Program:
    """First-order Trotterisation of ``exp(-i H time)`` with ``trotter_steps`` slices."""
    if trotter_steps < 1:
        raise ValueError("trotter_steps must be at least 1")
    system_qubits = flatten_qubits(system_qubits)
    step_time = time / trotter_steps
    for _ in range(trotter_steps):
        append_trotter_step(program, hamiltonian, step_time, system_qubits, control=control)
    return program
