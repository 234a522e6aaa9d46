"""Instruction types for the program IR.

A program (see :mod:`repro.lang.program`) is a flat list of instructions:

* :class:`GateInstruction` — a (possibly controlled) unitary gate.
* :class:`PrepInstruction` — Scaffold's ``PrepZ``: initialise a qubit to 0/1.
* :class:`MeasureInstruction` — terminal measurement of a group of qubits.
* :class:`BarrierInstruction` — no-op marker used for readability/splitting.
* :class:`BlockMarkerInstruction` — begin/end markers emitted by the
  compute/uncompute and control-block context managers (Section 5.1.1).
* Assertion instructions — the quantum breakpoints proposed by the paper:
  :class:`ClassicalAssertInstruction`, :class:`SuperpositionAssertInstruction`,
  :class:`EntangledAssertInstruction`, :class:`ProductAssertInstruction` and
  :class:`AssertObservableInstruction`.

Assertion instructions carry only *what* to check; the statistics live in
:mod:`repro.core.assertions`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..observables.pauli import PauliSum
from ..sim.gates import gate_matrix
from .registers import Qubit

__all__ = [
    "Instruction",
    "GateInstruction",
    "PrepInstruction",
    "MeasureInstruction",
    "BarrierInstruction",
    "BlockMarkerInstruction",
    "AssertionInstruction",
    "ClassicalAssertInstruction",
    "SuperpositionAssertInstruction",
    "EntangledAssertInstruction",
    "ProductAssertInstruction",
    "AssertObservableInstruction",
    "SELF_INVERSE_GATES",
    "DAGGER_PAIRS",
    "inverse_gate_spec",
    "gate_matrix",
]

#: Fixed gates that are their own inverse.
SELF_INVERSE_GATES = frozenset(
    {"id", "x", "y", "z", "h", "cx", "cnot", "cz", "swap", "ccx", "ccnot", "toffoli", "cswap", "fredkin"}
)

#: Fixed gates whose inverse is another fixed gate.
DAGGER_PAIRS = {
    "s": "sdg",
    "sdg": "s",
    "t": "tdg",
    "tdg": "t",
}

#: Parameterised gates whose inverse negates every parameter.
_NEGATE_PARAM_GATES = frozenset({"rx", "ry", "rz", "phase", "u1", "p"})


def inverse_gate_spec(name: str, params: Sequence[float]) -> tuple[str, tuple[float, ...]]:
    """Return ``(name, params)`` of the inverse of the given base gate."""
    key = name.lower()
    if key in SELF_INVERSE_GATES:
        return key, tuple(params)
    if key in DAGGER_PAIRS:
        return DAGGER_PAIRS[key], tuple(params)
    if key in _NEGATE_PARAM_GATES:
        return key, tuple(-p for p in params)
    if key == "u3":
        theta, phi, lam = params
        return "u3", (-theta, -lam, -phi)
    if key == "sx":
        # No dedicated sxdg gate in the library: express it as an rx rotation
        # up to global phase, which is safe because sx is never controlled in
        # the benchmark programs.
        return "rx", (-np.pi / 2.0,)
    raise KeyError(f"cannot invert unknown gate {name!r}")


class Instruction:
    """Base class for every IR instruction."""

    #: Whether the instruction applies a unitary to the state.
    is_unitary: bool = False
    #: Whether the instruction is a statistical assertion (quantum breakpoint).
    is_assertion: bool = False

    def qubits(self) -> list[Qubit]:
        """All qubits the instruction touches (used for validation passes)."""
        raise NotImplementedError


@dataclass(frozen=True)
class GateInstruction(Instruction):
    """A unitary gate, optionally with control qubits.

    ``targets[0]`` is the least significant operand of the base gate matrix.
    Controls are all positive (condition on ``|1>``); anti-controls must be
    expressed with explicit X gates, as in the paper's listings.
    """

    name: str
    targets: tuple[Qubit, ...]
    controls: tuple[Qubit, ...] = ()
    params: tuple[float, ...] = ()

    is_unitary = True

    def __post_init__(self) -> None:
        overlap = set(self.targets) & set(self.controls)
        if overlap:
            raise ValueError(f"qubits {overlap} are both control and target")
        gate_matrix(self.name, self.params)  # validates name/arity eagerly

    def qubits(self) -> list[Qubit]:
        return list(self.controls) + list(self.targets)

    def base_matrix(self) -> np.ndarray:
        return gate_matrix(self.name, self.params)

    def inverse(self) -> "GateInstruction":
        inv_name, inv_params = inverse_gate_spec(self.name, self.params)
        return GateInstruction(
            name=inv_name,
            targets=self.targets,
            controls=self.controls,
            params=inv_params,
        )

    def with_extra_controls(self, controls: Sequence[Qubit]) -> "GateInstruction":
        new_controls = tuple(controls) + self.controls
        return GateInstruction(
            name=self.name,
            targets=self.targets,
            controls=new_controls,
            params=self.params,
        )

    def describe(self) -> str:
        prefix = "c" * len(self.controls)
        params = ""
        if self.params:
            params = "(" + ", ".join(f"{p:.6g}" for p in self.params) + ")"
        operands = ", ".join(repr(q) for q in self.qubits())
        return f"{prefix}{self.name}{params} {operands}"


@dataclass(frozen=True)
class PrepInstruction(Instruction):
    """Scaffold ``PrepZ(qubit, value)``: initialise a qubit to ``|0>`` or ``|1>``."""

    qubit: Qubit
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError("PrepZ value must be 0 or 1")

    def qubits(self) -> list[Qubit]:
        return [self.qubit]

    def describe(self) -> str:
        return f"PrepZ {self.qubit!r} <- {self.value}"


@dataclass(frozen=True)
class MeasureInstruction(Instruction):
    """Terminal measurement of a group of qubits into a named classical result."""

    measured: tuple[Qubit, ...]
    label: str = "result"

    def qubits(self) -> list[Qubit]:
        return list(self.measured)

    def describe(self) -> str:
        return f"Measure {self.label}: {', '.join(repr(q) for q in self.measured)}"


@dataclass(frozen=True)
class BarrierInstruction(Instruction):
    """No-op marker separating logical phases of a program."""

    marked: tuple[Qubit, ...] = ()
    comment: str = ""

    def qubits(self) -> list[Qubit]:
        return list(self.marked)

    def describe(self) -> str:
        return f"Barrier {self.comment}".rstrip()


@dataclass(frozen=True)
class BlockMarkerInstruction(Instruction):
    """Begin/end marker for compute/uncompute and control blocks.

    These are emitted by :mod:`repro.lang.patterns` and consumed by the
    pattern scanner that auto-places entanglement and product assertions
    (Section 5.1.1 of the paper).  They have no effect on simulation.
    """

    kind: str  # "compute", "uncompute", "control"
    boundary: str  # "begin" or "end"
    block_id: int
    involved: tuple[Qubit, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in {"compute", "uncompute", "control"}:
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.boundary not in {"begin", "end"}:
            raise ValueError(f"unknown boundary {self.boundary!r}")

    def qubits(self) -> list[Qubit]:
        return list(self.involved)

    def describe(self) -> str:
        return f"# {self.kind} block {self.block_id} {self.boundary}"


# ---------------------------------------------------------------------------
# Assertion instructions (quantum breakpoints)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssertionInstruction(Instruction):
    """Common fields of every statistical assertion statement."""

    label: str = ""

    is_assertion = True

    def qubits(self) -> list[Qubit]:  # pragma: no cover - overridden
        raise NotImplementedError

    def describe(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class ClassicalAssertInstruction(AssertionInstruction):
    """``assert_classical(reg, width, value)`` from the paper's listings."""

    measured: tuple[Qubit, ...] = ()
    value: int = 0

    def __post_init__(self) -> None:
        if not self.measured:
            raise ValueError("classical assertion needs at least one qubit")
        if not 0 <= self.value < (1 << len(self.measured)):
            raise ValueError(
                f"expected value {self.value} does not fit in {len(self.measured)} qubits"
            )

    def qubits(self) -> list[Qubit]:
        return list(self.measured)

    def describe(self) -> str:
        return (
            f"assert_classical({', '.join(repr(q) for q in self.measured)}) == {self.value}"
        )


@dataclass(frozen=True)
class SuperpositionAssertInstruction(AssertionInstruction):
    """``assert_superposition(reg, width)``: uniform superposition check.

    ``values`` optionally restricts the expected support to a subset of
    outcomes (uniform over that subset); ``None`` means uniform over all
    ``2**n`` outcomes as in Listing 1.
    """

    measured: tuple[Qubit, ...] = ()
    values: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.measured:
            raise ValueError("superposition assertion needs at least one qubit")
        if self.values is not None:
            limit = 1 << len(self.measured)
            if len(self.values) < 2:
                raise ValueError("superposition support needs at least two values")
            if len(set(self.values)) != len(self.values):
                raise ValueError("superposition support contains duplicates")
            for value in self.values:
                if not 0 <= value < limit:
                    raise ValueError(f"support value {value} out of range")

    def qubits(self) -> list[Qubit]:
        return list(self.measured)

    def describe(self) -> str:
        support = "uniform" if self.values is None else f"uniform over {sorted(self.values)}"
        return (
            f"assert_superposition({', '.join(repr(q) for q in self.measured)}) [{support}]"
        )


@dataclass(frozen=True)
class EntangledAssertInstruction(AssertionInstruction):
    """``assert_entangled(a, wa, b, wb)``: the two variables must be dependent."""

    group_a: tuple[Qubit, ...] = ()
    group_b: tuple[Qubit, ...] = ()

    def __post_init__(self) -> None:
        if not self.group_a or not self.group_b:
            raise ValueError("entanglement assertion needs two non-empty groups")
        if set(self.group_a) & set(self.group_b):
            raise ValueError("entanglement assertion groups overlap")

    def qubits(self) -> list[Qubit]:
        return list(self.group_a) + list(self.group_b)

    def describe(self) -> str:
        a = ", ".join(repr(q) for q in self.group_a)
        b = ", ".join(repr(q) for q in self.group_b)
        return f"assert_entangled([{a}], [{b}])"


@dataclass(frozen=True)
class ProductAssertInstruction(AssertionInstruction):
    """``assert_product(a, wa, b, wb)``: the two variables must be independent."""

    group_a: tuple[Qubit, ...] = ()
    group_b: tuple[Qubit, ...] = ()

    def __post_init__(self) -> None:
        if not self.group_a or not self.group_b:
            raise ValueError("product assertion needs two non-empty groups")
        if set(self.group_a) & set(self.group_b):
            raise ValueError("product assertion groups overlap")

    def qubits(self) -> list[Qubit]:
        return list(self.group_a) + list(self.group_b)

    def describe(self) -> str:
        a = ", ".join(repr(q) for q in self.group_a)
        b = ", ".join(repr(q) for q in self.group_b)
        return f"assert_product([{a}], [{b}])"


@dataclass(frozen=True)
class AssertObservableInstruction(AssertionInstruction):
    """``assert_observable(reg, H, expectation, tolerance)``: a Pauli-expectation check.

    ``observable`` is a Hermitian :class:`~repro.observables.pauli.PauliSum`
    whose qubit ``i`` acts on ``targets[i]``; the assertion claims
    ``|<H> - expectation| <= tolerance`` on the state at the breakpoint.
    """

    targets: tuple[Qubit, ...] = ()
    observable: PauliSum = field(default_factory=lambda: PauliSum([]))
    expectation: float = 0.0
    tolerance: float = 0.0

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("observable assertion needs at least one qubit")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("observable assertion targets contain duplicates")
        if not isinstance(self.observable, PauliSum):
            raise TypeError("observable must be a PauliSum")
        if not self.observable.terms:
            raise ValueError("observable assertion needs a non-empty observable")
        if self.observable.num_qubits != len(self.targets):
            raise ValueError(
                f"observable acts on {self.observable.num_qubits} qubits but "
                f"{len(self.targets)} targets were given"
            )
        for term in self.observable.terms:
            if abs(term.coefficient.imag) > 1e-12:
                raise ValueError("observable coefficients must be real (Hermitian)")
        if not np.isfinite(self.expectation):
            raise ValueError("expected value must be finite")
        if not (np.isfinite(self.tolerance) and self.tolerance >= 0.0):
            raise ValueError("tolerance must be finite and non-negative")

    def support_indices(self) -> tuple[int, ...]:
        """Indices into ``targets`` touched by at least one non-identity factor."""
        touched: set[int] = set()
        for term in self.observable.terms:
            touched.update(term.support())
        return tuple(sorted(touched))

    def qubits(self) -> list[Qubit]:
        return [self.targets[index] for index in self.support_indices()]

    def describe(self) -> str:
        operands = ", ".join(repr(q) for q in self.targets)
        terms = " ".join(
            f"{term.coefficient.real:+.12g}*{term.label()}" for term in self.observable.terms
        )
        return (
            f"assert_observable([{operands}]) == {self.expectation:.12g} "
            f"+/- {self.tolerance:.12g} [{terms}]"
        )
