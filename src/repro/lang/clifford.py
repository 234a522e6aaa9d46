"""Clifford classification of IR instructions.

The hybrid execution engine needs to know, *before* simulating anything,
which prefix of a program the stabilizer tableau can carry.  This module is
that classification pass: it tags each instruction Clifford-or-not using the
structural matrix recognition of :mod:`repro.sim.clifford` (so every
spelling of a Clifford counts — ``h``/``s``/``cx`` by name, ``rz(pi/2)`` and
friends by their right-angle parameters, ``c-phase(pi)`` as CZ, ...), and it
is what :func:`repro.compiler.splitter.build_execution_plan` consults to
stamp Clifford-prefix metadata onto plan segments.  The static analyzer
takes each gate's tableau ops from the same memo (:func:`clifford_ops`).

Non-gate instructions (``PrepZ``, barriers, block markers, measurements and
assertions) are all tableau-compatible: preparation lowers to measurement +
X, and the rest never touch the simulator.
"""

from __future__ import annotations

from typing import Iterable

from ..sim.clifford import (
    NotCliffordGateError,
    decompose_controlled_gate,
    decompose_gate,
)
from .instructions import GateInstruction, Instruction

__all__ = [
    "clifford_ops",
    "is_clifford_instruction",
    "clifford_prefix_length",
]

#: Memoised tableau ops (``None`` for a non-Clifford gate), keyed by the
#: gate's structural identity.
_CACHE: "dict[tuple, tuple | None]" = {}


def clifford_ops(instruction: GateInstruction) -> "tuple | None":
    """The gate's tableau ops, or ``None`` when it is not Clifford.

    Decomposed by the same matrix recognition the stabilizer backend applies
    at runtime, so the classification can never disagree with what the
    backend accepts, and memoised per ``(name, params, #controls, #targets)``
    for the classifier and the static analyzer alike.
    """
    key = (
        instruction.name,
        instruction.params,
        len(instruction.controls),
        len(instruction.targets),
    )
    try:
        return _CACHE[key]
    except KeyError:
        pass
    try:
        if instruction.controls:
            ops = decompose_controlled_gate(
                instruction.base_matrix(),
                len(instruction.controls),
                len(instruction.targets),
            )
        else:
            ops = decompose_gate(instruction.base_matrix(), len(instruction.targets))
    except NotCliffordGateError:
        ops = None
    _CACHE[key] = ops
    return ops


def is_clifford_instruction(instruction: Instruction) -> bool:
    """True when the instruction can run on a stabilizer tableau.

    Every non-gate instruction is tableau-compatible by construction.
    """
    if not isinstance(instruction, GateInstruction):
        return True
    return clifford_ops(instruction) is not None


def clifford_prefix_length(instructions: Iterable[Instruction]) -> int:
    """Number of leading instructions the stabilizer tableau can execute."""
    length = 0
    for instruction in instructions:
        if not is_clifford_instruction(instruction):
            break
        length += 1
    return length
