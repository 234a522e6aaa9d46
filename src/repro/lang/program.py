"""The quantum program container (Scaffold replacement).

A :class:`Program` owns a set of quantum registers and an ordered list of
instructions.  It offers:

* Scaffold-style gate statements (``H``, ``CNOT``, ``Rz``, ``cRz``, ``ccRz``,
  ``PrepZ``, ...), spelled as snake_case methods;
* the four statistical assertion statements proposed by the paper
  (``assert_classical``, ``assert_superposition``, ``assert_entangled``,
  ``assert_product``);
* structural operations used to build larger programs out of subroutines:
  ``extend``, ``inverse``, ``controlled_on``, ``power``;
* direct simulation on the statevector simulator (``simulate``), which is how
  unit tests cross-validate subroutines against closed-form results.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from ..sim.backend import SimulationBackend
from ..sim.registry import make_backend
from ..sim.statevector import Statevector
from ..observables.pauli import PauliString, PauliSum
from .instructions import (
    AssertionInstruction,
    AssertObservableInstruction,
    BarrierInstruction,
    BlockMarkerInstruction,
    ClassicalAssertInstruction,
    EntangledAssertInstruction,
    GateInstruction,
    Instruction,
    MeasureInstruction,
    PrepInstruction,
    ProductAssertInstruction,
    SuperpositionAssertInstruction,
)
from .registers import ClassicalRegister, QuantumRegister, Qubit, flatten_qubits

__all__ = ["InstructionList", "Program", "run_instructions"]


def run_instructions(
    program: "Program",
    instructions: Iterable[Instruction],
    backend: SimulationBackend,
    rng: np.random.Generator | int | None = None,
) -> SimulationBackend:
    """Interpret a stream of IR ``instructions`` onto an initialised ``backend``.

    This is the single lowering point from the lang IR to the simulation
    layer: :meth:`Program.simulate` feeds it the whole instruction list, the
    incremental executor feeds it one plan segment at a time.  ``program``
    supplies the qubit numbering (the instructions must belong to it).
    Assertions, barriers, block markers and measurements are no-ops here —
    they are handled by the compiler/executor.
    """
    for instruction in instructions:
        if isinstance(instruction, GateInstruction):
            targets = [program.qubit_index(q) for q in instruction.targets]
            if instruction.controls:
                controls = [program.qubit_index(q) for q in instruction.controls]
                backend.apply_controlled(instruction.base_matrix(), controls, targets)
            else:
                backend.apply_matrix(instruction.base_matrix(), targets)
        elif isinstance(instruction, PrepInstruction):
            backend.prep_qubit(
                program.qubit_index(instruction.qubit), instruction.value, rng=rng
            )
        elif isinstance(
            instruction,
            (
                AssertionInstruction,
                BarrierInstruction,
                BlockMarkerInstruction,
                MeasureInstruction,
            ),
        ):
            continue
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown instruction type: {type(instruction)!r}")
    return backend


class InstructionList(list):
    """A program's instruction list, carrying the program's fingerprint memo.

    ``fingerprint`` holds the digest that
    :func:`repro.compiler.plan_cache.program_fingerprint` last computed for
    the program owning this list, or ``None``.  Every in-place change to the
    list (``append``, slice assignment, ``insert``, ``del``, ``+=``,
    ``sort``, ...) drops it, and so do the owner's register and
    lint-suppression changes.  Instructions themselves are frozen, so no
    other change can move the digest.  The memo lives here rather than on
    the program so that the list's own mutators can drop it without a
    reference back to their owner.  Slices and ``+`` return plain lists.

    The memo is part of the pickled state, which unpickling restores after
    replaying the items, so it travels with a program to a worker process.
    """

    __slots__ = ("fingerprint",)

    def __init__(self, instructions: Iterable[Instruction] = ()):
        super().__init__(instructions)
        self.fingerprint: str | None = None


def _dropping_fingerprint(method):
    @functools.wraps(method)
    def mutator(self, *args, **kwargs):
        self.fingerprint = None
        return method(self, *args, **kwargs)

    return mutator


for _name in (
    "__setitem__", "__delitem__", "__iadd__", "__imul__", "append", "extend",
    "insert", "pop", "remove", "clear", "sort", "reverse",
):
    setattr(InstructionList, _name, _dropping_fingerprint(getattr(list, _name)))
del _name


class Program:
    """An ordered quantum program over named registers.

    ``instructions`` is an :class:`InstructionList`; assigning any iterable
    to it stores a fresh copy.  ``lint_suppressions`` is a read-only
    ``frozenset`` that only :meth:`suppress_lint` extends.  Together with
    :meth:`add_register` these are the only changes that can move the
    program's fingerprint, and each of them drops its memo.
    """

    def __init__(self, name: str = "main"):
        self.name = name
        self.registers: list[QuantumRegister] = []
        self.classical_registers: list[ClassicalRegister] = []
        self._instructions = InstructionList()
        self._offsets: dict[QuantumRegister, int] = {}
        self._num_qubits = 0
        self._next_block_id = 0
        self._open_blocks: dict[str, list[int]] = {}
        self._lint_suppressions: frozenset[str] = frozenset()

    @property
    def instructions(self) -> InstructionList:
        return self._instructions

    @instructions.setter
    def instructions(self, instructions: Iterable[Instruction]) -> None:
        self._instructions = InstructionList(instructions)

    @property
    def lint_suppressions(self) -> frozenset[str]:
        """Lint codes (``"QLINT003"``) the author opted out of.

        Set via :meth:`suppress_lint`, e.g. by ``// qlint: disable=QLINT003``
        comments in imported OpenQASM.  Honored by
        :func:`repro.analysis.lint_program` unless the caller passes
        ``suppress=False``.
        """
        return self._lint_suppressions

    def suppress_lint(self, *codes: str) -> "Program":
        """Opt out of the given ``QLINT0xx`` diagnostics for this program."""
        self._lint_suppressions = self._lint_suppressions.union(
            str(code).upper() for code in codes
        )
        self._instructions.fingerprint = None
        return self

    # ------------------------------------------------------------------
    # Registers
    # ------------------------------------------------------------------

    def add_register(self, register: QuantumRegister) -> QuantumRegister:
        """Attach an existing register to this program."""
        if register in self._offsets:
            return register
        if any(existing.name == register.name for existing in self.registers):
            raise ValueError(f"register name {register.name!r} already in use")
        self._offsets[register] = self._num_qubits
        self.registers.append(register)
        self._num_qubits += register.size
        self._instructions.fingerprint = None
        return register

    def qreg(self, name: str, size: int) -> QuantumRegister:
        """Declare a new quantum register (``qbit name[size]`` in Scaffold)."""
        return self.add_register(QuantumRegister(name, size))

    def creg(self, name: str, size: int) -> ClassicalRegister:
        register = ClassicalRegister(name, size)
        self.classical_registers.append(register)
        return register

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    def qubit_index(self, qubit: Qubit) -> int:
        """Flat simulator index of a qubit (register offset + position)."""
        try:
            return self._offsets[qubit.register] + qubit.index
        except KeyError:
            raise KeyError(
                f"register {qubit.register.name!r} does not belong to program {self.name!r}"
            ) from None

    def qubit_indices(self, operands) -> list[int]:
        return [self.qubit_index(q) for q in flatten_qubits(operands)]

    def all_qubits(self) -> list[Qubit]:
        result: list[Qubit] = []
        for register in self.registers:
            result.extend(register.qubits())
        return result

    # ------------------------------------------------------------------
    # Low-level instruction handling
    # ------------------------------------------------------------------

    def append(self, instruction: Instruction) -> "Program":
        for qubit in instruction.qubits():
            self.qubit_index(qubit)  # raises if the register is foreign
        self.instructions.append(instruction)
        return self

    def extend(self, other: "Program | Iterable[Instruction]") -> "Program":
        """Append all instructions of another program (or instruction stream).

        Registers of the other program are added to this one (identity-based),
        which is how subroutine builders share registers with their caller.
        """
        if isinstance(other, Program):
            for register in other.registers:
                self.add_register(register)
            for instruction in other.instructions:
                self.append(instruction)
        else:
            for instruction in other:
                self.append(instruction)
        return self

    def gate(
        self,
        name: str,
        targets,
        controls=None,
        params: Sequence[float] = (),
    ) -> "Program":
        """Append an arbitrary named gate."""
        target_qubits = tuple(flatten_qubits(targets))
        control_qubits = tuple(flatten_qubits(controls)) if controls is not None else ()
        instruction = GateInstruction(
            name=name.lower(),
            targets=target_qubits,
            controls=control_qubits,
            params=tuple(float(p) for p in params),
        )
        return self.append(instruction)

    # ------------------------------------------------------------------
    # Single-qubit gates
    # ------------------------------------------------------------------

    def x(self, qubit) -> "Program":
        return self.gate("x", qubit)

    def y(self, qubit) -> "Program":
        return self.gate("y", qubit)

    def z(self, qubit) -> "Program":
        return self.gate("z", qubit)

    def h(self, qubit) -> "Program":
        return self.gate("h", qubit)

    def s(self, qubit) -> "Program":
        return self.gate("s", qubit)

    def sdg(self, qubit) -> "Program":
        return self.gate("sdg", qubit)

    def t(self, qubit) -> "Program":
        return self.gate("t", qubit)

    def tdg(self, qubit) -> "Program":
        return self.gate("tdg", qubit)

    def rx(self, qubit, theta: float) -> "Program":
        return self.gate("rx", qubit, params=(theta,))

    def ry(self, qubit, theta: float) -> "Program":
        return self.gate("ry", qubit, params=(theta,))

    def rz(self, qubit, theta: float) -> "Program":
        return self.gate("rz", qubit, params=(theta,))

    def phase(self, qubit, theta: float) -> "Program":
        return self.gate("phase", qubit, params=(theta,))

    def u3(self, qubit, theta: float, phi: float, lam: float) -> "Program":
        return self.gate("u3", qubit, params=(theta, phi, lam))

    # ------------------------------------------------------------------
    # Controlled gates (Scaffold's CNOT / cRz / ccRz spellings)
    # ------------------------------------------------------------------

    def cnot(self, control, target) -> "Program":
        return self.gate("x", target, controls=control)

    cx = cnot

    def cz(self, control, target) -> "Program":
        return self.gate("z", target, controls=control)

    def cy(self, control, target) -> "Program":
        return self.gate("y", target, controls=control)

    def ch(self, control, target) -> "Program":
        return self.gate("h", target, controls=control)

    def swap(self, qubit_a, qubit_b) -> "Program":
        qubits = flatten_qubits([qubit_a, qubit_b])
        return self.gate("swap", qubits)

    def cswap(self, control, qubit_a, qubit_b) -> "Program":
        qubits = flatten_qubits([qubit_a, qubit_b])
        return self.gate("swap", qubits, controls=control)

    def toffoli(self, control_a, control_b, target) -> "Program":
        return self.gate("x", target, controls=[control_a, control_b])

    ccnot = toffoli
    ccx = toffoli

    def crz(self, control, target, theta: float) -> "Program":
        return self.gate("rz", target, controls=control, params=(theta,))

    def ccrz(self, control_a, control_b, target, theta: float) -> "Program":
        return self.gate("rz", target, controls=[control_a, control_b], params=(theta,))

    def cphase(self, control, target, theta: float) -> "Program":
        return self.gate("phase", target, controls=control, params=(theta,))

    def ccphase(self, control_a, control_b, target, theta: float) -> "Program":
        return self.gate(
            "phase", target, controls=[control_a, control_b], params=(theta,)
        )

    def crx(self, control, target, theta: float) -> "Program":
        return self.gate("rx", target, controls=control, params=(theta,))

    def cry(self, control, target, theta: float) -> "Program":
        return self.gate("ry", target, controls=control, params=(theta,))

    def mcx(self, controls, target) -> "Program":
        return self.gate("x", target, controls=controls)

    def mcz(self, controls, target) -> "Program":
        return self.gate("z", target, controls=controls)

    def mcphase(self, controls, target, theta: float) -> "Program":
        return self.gate("phase", target, controls=controls, params=(theta,))

    # ------------------------------------------------------------------
    # State preparation, barriers, measurement
    # ------------------------------------------------------------------

    def prep_z(self, qubit, value: int) -> "Program":
        """Scaffold ``PrepZ(qubit, value)``."""
        (single,) = flatten_qubits(qubit)
        return self.append(PrepInstruction(qubit=single, value=int(value)))

    def prepare_int(self, register, value: int) -> "Program":
        """Initialise a whole register to a classical integer, LSB = qubit 0.

        Mirrors the idiom used throughout the paper's listings::

            for ( int i=0; i<width; i++ ) PrepZ ( reg[i], (value>>i)&1 );
        """
        qubits = flatten_qubits(register)
        if not 0 <= value < (1 << len(qubits)):
            raise ValueError(f"value {value} does not fit in {len(qubits)} qubits")
        for position, qubit in enumerate(qubits):
            self.prep_z(qubit, (value >> position) & 1)
        return self

    def barrier(self, qubits=None, comment: str = "") -> "Program":
        marked = tuple(flatten_qubits(qubits)) if qubits is not None else ()
        return self.append(BarrierInstruction(marked=marked, comment=comment))

    def measure(self, qubits, label: str = "result") -> "Program":
        return self.append(
            MeasureInstruction(measured=tuple(flatten_qubits(qubits)), label=label)
        )

    def block_marker(self, kind: str, boundary: str, involved=()) -> BlockMarkerInstruction:
        """Emit a begin/end marker for a compute/uncompute/control block.

        Begin markers allocate a fresh block id; the matching end marker pops
        it from a per-kind stack, so begin/end pairs of the same block always
        share an id even when blocks nest.
        """
        stack = self._open_blocks.setdefault(kind, [])
        if boundary == "begin":
            block_id = self._next_block_id
            self._next_block_id += 1
            stack.append(block_id)
        else:
            block_id = stack.pop() if stack else self._next_block_id
        marker = BlockMarkerInstruction(
            kind=kind,
            boundary=boundary,
            block_id=block_id,
            involved=tuple(flatten_qubits(involved, allow_empty=True)),
        )
        self.append(marker)
        return marker

    # ------------------------------------------------------------------
    # Statistical assertion statements (quantum breakpoints)
    # ------------------------------------------------------------------

    def assert_classical(self, register, value: int, label: str = "") -> "Program":
        """Assert the register collapses to the classical integer ``value``."""
        qubits = tuple(flatten_qubits(register))
        return self.append(
            ClassicalAssertInstruction(label=label, measured=qubits, value=int(value))
        )

    def assert_superposition(
        self, register, values: Sequence[int] | None = None, label: str = ""
    ) -> "Program":
        """Assert the register measures to a uniform superposition."""
        qubits = tuple(flatten_qubits(register))
        support = tuple(int(v) for v in values) if values is not None else None
        return self.append(
            SuperpositionAssertInstruction(label=label, measured=qubits, values=support)
        )

    def assert_entangled(self, register_a, register_b, label: str = "") -> "Program":
        """Assert the two variables are entangled (measurements correlated)."""
        return self.append(
            EntangledAssertInstruction(
                label=label,
                group_a=tuple(flatten_qubits(register_a)),
                group_b=tuple(flatten_qubits(register_b)),
            )
        )

    def assert_product(self, register_a, register_b, label: str = "") -> "Program":
        """Assert the two variables are in a product (unentangled) state."""
        return self.append(
            ProductAssertInstruction(
                label=label,
                group_a=tuple(flatten_qubits(register_a)),
                group_b=tuple(flatten_qubits(register_b)),
            )
        )

    def assert_observable(
        self,
        register,
        observable: "PauliSum | PauliString",
        expectation: float,
        tolerance: float = 0.0,
        label: str = "",
    ) -> "Program":
        """Assert ``|<observable> - expectation| <= tolerance`` on the register.

        ``observable`` is a :class:`~repro.observables.pauli.PauliSum` (or a
        single :class:`~repro.observables.pauli.PauliString`) whose qubit ``i``
        refers to the ``i``-th qubit of ``register``.
        """
        qubits = tuple(flatten_qubits(register))
        if isinstance(observable, PauliString):
            observable = PauliSum([observable])
        return self.append(
            AssertObservableInstruction(
                label=label,
                targets=qubits,
                observable=observable,
                expectation=float(expectation),
                tolerance=float(tolerance),
            )
        )

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------

    def gate_instructions(self) -> list[GateInstruction]:
        return [i for i in self.instructions if isinstance(i, GateInstruction)]

    def assertions(self) -> list[AssertionInstruction]:
        return [i for i in self.instructions if isinstance(i, AssertionInstruction)]

    def inverse(self, name: str | None = None) -> "Program":
        """The adjoint program: gates inverted and applied in reverse order.

        Only unitary content can be inverted; state preparation, measurement
        and assertion instructions raise, because the paper's mirroring
        pattern (uncomputation) applies to the unitary body of a subroutine.
        Barriers and block markers are dropped.
        """
        inverted = Program(name or f"{self.name}_dagger")
        for register in self.registers:
            inverted.add_register(register)
        for instruction in reversed(self.instructions):
            if isinstance(instruction, GateInstruction):
                inverted.append(instruction.inverse())
            elif isinstance(instruction, (BarrierInstruction, BlockMarkerInstruction)):
                continue
            else:
                raise ValueError(
                    f"cannot invert non-unitary instruction: {instruction.describe()}"
                )
        return inverted

    def controlled_on(self, controls, name: str | None = None) -> "Program":
        """A copy of the program with every gate controlled by ``controls``.

        This is the recursion pattern of Section 4.4: a subroutine reused with
        a varying number of control qubits.
        """
        control_qubits = flatten_qubits(controls)
        result = Program(name or f"c_{self.name}")
        for register in self.registers:
            result.add_register(register)
        for qubit in control_qubits:
            result.add_register(qubit.register)
        for instruction in self.instructions:
            if isinstance(instruction, GateInstruction):
                result.append(instruction.with_extra_controls(control_qubits))
            elif isinstance(instruction, (BarrierInstruction, BlockMarkerInstruction)):
                result.append(instruction)
            else:
                raise ValueError(
                    f"cannot control non-unitary instruction: {instruction.describe()}"
                )
        return result

    def power(self, exponent: int, name: str | None = None) -> "Program":
        """The program repeated ``exponent`` times (must be non-negative)."""
        if exponent < 0:
            raise ValueError("exponent must be non-negative; invert explicitly instead")
        result = Program(name or f"{self.name}_pow{exponent}")
        for register in self.registers:
            result.add_register(register)
        for _ in range(exponent):
            for instruction in self.instructions:
                result.append(instruction)
        return result

    def without_assertions(self) -> "Program":
        """Copy of the program with every assertion statement removed."""
        result = Program(self.name)
        for register in self.registers:
            result.add_register(register)
        for instruction in self.instructions:
            if not isinstance(instruction, AssertionInstruction):
                result.append(instruction)
        return result

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def count_gates(self) -> Counter:
        """Gate histogram keyed by ``(name, num_controls)``."""
        histogram: Counter = Counter()
        for instruction in self.gate_instructions():
            histogram[(instruction.name, len(instruction.controls))] += 1
        return histogram

    def num_gates(self) -> int:
        return len(self.gate_instructions())

    def depth(self) -> int:
        """Circuit depth counting every gate as one time step on its qubits."""
        busy_until: dict[Qubit, int] = {}
        depth = 0
        for instruction in self.gate_instructions():
            start = max((busy_until.get(q, 0) for q in instruction.qubits()), default=0)
            finish = start + 1
            for qubit in instruction.qubits():
                busy_until[qubit] = finish
            depth = max(depth, finish)
        return depth

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def simulate(
        self,
        initial_state: Statevector | None = None,
        rng: np.random.Generator | int | None = None,
        backend: "str | SimulationBackend | None" = None,
    ) -> Statevector:
        """Run the unitary content of the program on a simulation backend.

        Assertions, barriers, block markers and trailing measurements are
        skipped — they are handled by the compiler/executor.  ``PrepZ`` on a
        qubit that is still in a computational basis state is applied exactly;
        on a qubit in superposition it falls back to a measurement-based reset
        using ``rng`` (the paper's programs only prepare fresh qubits).

        ``backend`` selects the simulation backend (a registry name such as
        ``"statevector"``, a :class:`repro.sim.SimulationBackend` instance, or
        ``None`` for the default statevector backend).  The returned state is
        always a :class:`Statevector`; when an explicit backend instance is
        passed it is left holding the final state (with its gate counter
        updated) and the returned statevector is a copy.
        """
        engine = make_backend(backend)
        engine.initialize(self.num_qubits, initial_state=initial_state)
        run_instructions(self, self.instructions, engine, rng=rng)
        # Only a caller-owned backend instance keeps the state; engines
        # created here are discarded, so their state can be handed out as-is.
        return engine.to_statevector(copy=isinstance(backend, SimulationBackend))

    def unitary(self, backend: "str | SimulationBackend | None" = None) -> np.ndarray:
        """Exact unitary matrix of the program's gate content.

        Used to cross-validate subroutines against closed-form linear algebra
        (e.g. the QFT against the DFT matrix, adders against permutation
        matrices), replacing the paper's cross-validation against other
        quantum programming frameworks.  Only gates are allowed; preparation
        and measurement are not unitary.
        """
        for instruction in self.instructions:
            if not isinstance(
                instruction,
                (GateInstruction, BarrierInstruction, BlockMarkerInstruction, AssertionInstruction),
            ):
                raise ValueError(
                    f"program contains non-unitary instruction: {instruction.describe()}"
                )
        dim = 1 << self.num_qubits
        matrix = np.zeros((dim, dim), dtype=complex)
        for column in range(dim):
            state = self.simulate(
                initial_state=Statevector.from_int(column, self.num_qubits),
                backend=backend,
            )
            matrix[:, column] = state.data
        return matrix

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable multi-line listing of the program."""
        lines = [f"program {self.name} ({self.num_qubits} qubits)"]
        for register in self.registers:
            lines.append(f"  qbit {register.name}[{register.size}]")
        for instruction in self.instructions:
            lines.append(f"  {instruction.describe()}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return (
            f"Program(name={self.name!r}, qubits={self.num_qubits}, "
            f"instructions={len(self.instructions)})"
        )
