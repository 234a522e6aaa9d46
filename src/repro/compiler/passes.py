"""Compiler passes: decomposition, validation and resource estimation.

The Scaffold/ScaffCC flow lowers high-level controlled operations into the
basic gate set before simulation.  These passes provide the equivalent
functionality for our IR:

* :func:`decompose_toffoli` — rewrite Toffoli gates into {H, T, Tdg, CNOT}.
* :func:`decompose_controlled_rotations` — rewrite singly-controlled Rz/phase
  gates into the A-B-C pattern of Figure 3 / Table 1 of the paper.
* :func:`decompose_multi_controls` — rewrite gates with more than two controls
  into Toffoli chains using ancilla qubits (the recursive pattern of Figure 4).
* :func:`validate_program` — structural checks (qubit usage, prep-before-use,
  assertion well-formedness).
* :func:`resource_report` — gate, depth and qubit counts per program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang.instructions import (
    AssertionInstruction,
    BarrierInstruction,
    BlockMarkerInstruction,
    GateInstruction,
    MeasureInstruction,
    PrepInstruction,
)
from ..lang.program import Program
from ..lang.registers import QuantumRegister, Qubit

__all__ = [
    "decompose_toffoli",
    "decompose_controlled_rotations",
    "decompose_multi_controls",
    "decompose_controlled_phases",
    "lower_to_basis",
    "validate_program",
    "ValidationIssue",
    "resource_report",
    "ResourceReport",
]


def _copy_shell(program: Program, suffix: str) -> Program:
    result = Program(f"{program.name}_{suffix}")
    for register in program.registers:
        result.add_register(register)
    return result


# ---------------------------------------------------------------------------
# Toffoli decomposition
# ---------------------------------------------------------------------------


def _emit_toffoli(target_program: Program, control_a: Qubit, control_b: Qubit, target: Qubit) -> None:
    """Standard 6-CNOT Toffoli decomposition into {H, T, Tdg, CNOT}."""
    p = target_program
    p.h(target)
    p.cnot(control_b, target)
    p.tdg(target)
    p.cnot(control_a, target)
    p.t(target)
    p.cnot(control_b, target)
    p.tdg(target)
    p.cnot(control_a, target)
    p.t(control_b)
    p.t(target)
    p.h(target)
    p.cnot(control_a, control_b)
    p.t(control_a)
    p.tdg(control_b)
    p.cnot(control_a, control_b)


def decompose_toffoli(program: Program) -> Program:
    """Rewrite every doubly-controlled X into the standard Clifford+T circuit."""
    result = _copy_shell(program, "no_toffoli")
    for instruction in program.instructions:
        if (
            isinstance(instruction, GateInstruction)
            and instruction.name == "x"
            and len(instruction.controls) == 2
        ):
            control_a, control_b = instruction.controls
            (target,) = instruction.targets
            _emit_toffoli(result, control_a, control_b, target)
        else:
            result.append(instruction)
    return result


# ---------------------------------------------------------------------------
# Controlled-rotation decomposition (Figure 3 / Table 1)
# ---------------------------------------------------------------------------


def decompose_controlled_rotations(program: Program, drop: str = "A") -> Program:
    """Rewrite controlled Rz / phase gates into single-qubit rotations + CNOTs.

    ``drop`` selects which of the two correct variants from Table 1 of the
    paper is emitted: ``"A"`` drops operation A (first column of the table)
    and ``"C"`` drops operation C (second column).  Both produce the same
    unitary; tests verify the equivalence.
    """
    if drop not in {"A", "C"}:
        raise ValueError("drop must be 'A' or 'C'")
    result = _copy_shell(program, "no_crz")
    for instruction in program.instructions:
        if (
            isinstance(instruction, GateInstruction)
            and instruction.name in {"rz", "phase"}
            and len(instruction.controls) == 1
        ):
            (control,) = instruction.controls
            (target,) = instruction.targets
            angle = instruction.params[0]
            if instruction.name == "rz":
                _emit_crz(result, control, target, angle, drop)
            else:
                _emit_cphase(result, control, target, angle, drop)
        else:
            result.append(instruction)
    return result


def _emit_crz(program: Program, control: Qubit, target: Qubit, angle: float, drop: str) -> None:
    """Controlled-Rz(angle) using the Table 1 pattern (no extra D rotation needed)."""
    if drop == "A":
        program.rz(target, +angle / 2.0)  # C
        program.cnot(control, target)
        program.rz(target, -angle / 2.0)  # B
        program.cnot(control, target)
    else:
        program.cnot(control, target)
        program.rz(target, -angle / 2.0)  # B
        program.cnot(control, target)
        program.rz(target, +angle / 2.0)  # A
    # Controlled-Rz is symmetric in phase between the control branches, so no
    # extra rotation on the control qubit is required; the controlled *phase*
    # gate below is where operation D appears.


def _emit_cphase(program: Program, control: Qubit, target: Qubit, angle: float, drop: str) -> None:
    """Controlled-phase(angle): the Table 1 pattern plus operation D on the control."""
    _emit_crz(program, control, target, angle, drop)
    program.phase(control, +angle / 2.0)  # D


# ---------------------------------------------------------------------------
# Multi-control decomposition (Figure 4)
# ---------------------------------------------------------------------------


def decompose_multi_controls(program: Program, max_controls: int = 2) -> Program:
    """Rewrite gates with more than ``max_controls`` controls using ancillae.

    Controls are AND-ed pairwise into a chain of ancilla qubits with Toffoli
    gates — the explicit version of the recursion pattern shown in Figure 4 and
    in the Scaffold column of Table 4 — after which the base gate is applied
    with a single control and the ancilla chain is uncomputed.
    """
    if max_controls < 1:
        raise ValueError("max_controls must be at least 1")
    worst_case = max(
        (len(i.controls) for i in program.gate_instructions()), default=0
    )
    result = _copy_shell(program, "few_controls")
    ancilla_register: QuantumRegister | None = None
    if worst_case > max_controls:
        ancilla_register = result.qreg("mcx_ancilla", max(worst_case - 1, 1))

    for instruction in program.instructions:
        if (
            isinstance(instruction, GateInstruction)
            and len(instruction.controls) > max_controls
        ):
            assert ancilla_register is not None
            _emit_multi_controlled(result, instruction, ancilla_register)
        else:
            result.append(instruction)
    return result


def _emit_multi_controlled(
    program: Program, instruction: GateInstruction, ancilla: QuantumRegister
) -> None:
    controls = list(instruction.controls)
    # Compute the AND of all controls into a chain of ancilla qubits.
    chain: list[Qubit] = []
    program.toffoli(controls[0], controls[1], ancilla[0])
    chain.append(ancilla[0])
    for position, control in enumerate(controls[2:], start=1):
        program.toffoli(chain[-1], control, ancilla[position])
        chain.append(ancilla[position])
    top = chain[-1]
    program.gate(
        instruction.name,
        list(instruction.targets),
        controls=[top],
        params=instruction.params,
    )
    # Uncompute the ancilla chain in reverse order.
    for position in range(len(chain) - 1, 0, -1):
        program.toffoli(chain[position - 1], controls[position + 1], ancilla[position])
    program.toffoli(controls[0], controls[1], ancilla[0])


def decompose_controlled_phases(program: Program) -> Program:
    """Rewrite doubly-controlled phase/Rz gates into singly-controlled ones.

    ``ccU1(t) = cU1(t/2)[c1,t] CX[c0,c1] cU1(-t/2)[c1,t] CX[c0,c1] cU1(t/2)[c0,t]``
    (and the same pattern for controlled-Rz), which brings the Fourier
    arithmetic of Listings 2-4 down to at most one control per gate so it can
    be exported to OpenQASM 2.0 or lowered further.
    """
    result = _copy_shell(program, "no_ccphase")
    for instruction in program.instructions:
        if (
            isinstance(instruction, GateInstruction)
            and instruction.name in {"phase", "rz"}
            and len(instruction.controls) == 2
        ):
            theta = instruction.params[0]
            c0, c1 = instruction.controls
            (target,) = instruction.targets
            result.gate(instruction.name, [target], controls=[c1], params=(theta / 2.0,))
            result.cnot(c0, c1)
            result.gate(instruction.name, [target], controls=[c1], params=(-theta / 2.0,))
            result.cnot(c0, c1)
            result.gate(instruction.name, [target], controls=[c0], params=(theta / 2.0,))
        else:
            result.append(instruction)
    return result


def lower_to_basis(program: Program, max_controls_first: int = 2) -> Program:
    """Lower a program to the {1-qubit rotations, CNOT} basis.

    The passes are applied in dependency order: gates with more than two
    controls are reduced with ancilla Toffoli chains, doubly-controlled phase
    rotations are split into singly-controlled ones, Toffolis become
    Clifford+T, and the remaining singly-controlled rotations are expanded via
    the Table 1 pattern.  The result contains only single-qubit gates and
    CNOTs (plus controlled-swap, if any, which has no further lowering here).
    """
    lowered = decompose_multi_controls(program, max_controls=max_controls_first)
    lowered = decompose_controlled_phases(lowered)
    lowered = decompose_toffoli(lowered)
    lowered = decompose_controlled_rotations(lowered)
    return lowered


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationIssue:
    """One structural problem found by :func:`validate_program`."""

    severity: str  # "error" or "warning"
    position: int
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] instruction {self.position}: {self.message}"


def validate_program(program: Program) -> list[ValidationIssue]:
    """Structural checks on a program; returns a list of issues (possibly empty)."""
    issues: list[ValidationIssue] = []
    prepared: set[Qubit] = set()
    touched: set[Qubit] = set()

    for position, instruction in enumerate(program.instructions):
        for qubit in instruction.qubits():
            try:
                program.qubit_index(qubit)
            except KeyError:
                issues.append(
                    ValidationIssue(
                        "error", position, f"qubit {qubit!r} belongs to a foreign register"
                    )
                )
        if isinstance(instruction, PrepInstruction):
            if instruction.qubit in touched:
                issues.append(
                    ValidationIssue(
                        "warning",
                        position,
                        f"PrepZ on {instruction.qubit!r} after it was already used; "
                        "this is a measurement-based reset",
                    )
                )
            prepared.add(instruction.qubit)
        elif isinstance(instruction, GateInstruction):
            for qubit in instruction.qubits():
                if qubit not in prepared and qubit not in touched:
                    # Using a never-prepared qubit is fine (it starts in |0>),
                    # but flag it for programs that otherwise prep everything.
                    pass
                touched.add(qubit)
        elif isinstance(instruction, AssertionInstruction):
            if not instruction.qubits():
                issues.append(
                    ValidationIssue("error", position, "assertion mentions no qubits")
                )
        elif isinstance(instruction, MeasureInstruction):
            if position != len(program.instructions) - 1 and any(
                isinstance(later, GateInstruction)
                and set(later.qubits()) & set(instruction.qubits())
                for later in program.instructions[position + 1 :]
            ):
                issues.append(
                    ValidationIssue(
                        "error",
                        position,
                        "measurement is followed by gates on the measured qubits; "
                        "mid-circuit measurement is not supported by the executor",
                    )
                )
        elif isinstance(instruction, (BarrierInstruction, BlockMarkerInstruction)):
            continue
    return issues


# ---------------------------------------------------------------------------
# Resource estimation
# ---------------------------------------------------------------------------


@dataclass
class ResourceReport:
    """Gate/qubit/depth statistics for one program."""

    name: str
    num_qubits: int
    num_gates: int
    depth: int
    gate_histogram: dict = field(default_factory=dict)
    num_assertions: int = 0
    num_preparations: int = 0

    def as_row(self) -> dict:
        return {
            "name": self.name,
            "qubits": self.num_qubits,
            "gates": self.num_gates,
            "depth": self.depth,
            "assertions": self.num_assertions,
        }


def resource_report(program: Program) -> ResourceReport:
    """Summarise the resources a program needs (used by EXPERIMENTS.md tables)."""
    histogram = {
        f"{'c' * controls}{name}": count
        for (name, controls), count in sorted(program.count_gates().items())
    }
    return ResourceReport(
        name=program.name,
        num_qubits=program.num_qubits,
        num_gates=program.num_gates(),
        depth=program.depth(),
        gate_histogram=histogram,
        num_assertions=len(program.assertions()),
        num_preparations=sum(
            1 for i in program.instructions if isinstance(i, PrepInstruction)
        ),
    )
