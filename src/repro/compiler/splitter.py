"""Breakpoint splitting: shared-prefix execution plans.

The paper's tool uses the ScaffCC compiler to turn a Scaffold program with
assertions into "multiple versions of OpenQASM.  Each version of the compiled
program has the program execution up to the quantum breakpoint, followed by an
early measurement and assertions on expected values for the quantum
variables."  Reproducing that literally costs O(total_gates x k) gate
applications for a k-assertion program, because every breakpoint re-simulates
its whole prefix from scratch.

This module instead compiles the program into an :class:`ExecutionPlan` made
of :class:`PlanSegment`\\ s — the *delta* instructions between consecutive
breakpoints.  Consecutive breakpoints share their common prefix, so an
incremental executor (:mod:`repro.compiler.executor`) can walk the plan once,
checkpoint at each breakpoint, and do O(total_gates) work overall.  Each
segment carries what the executor and the report need about its breakpoint
(index, name, assertion, cumulative gate count), so no prefix program is
ever built to check one.

The paper's per-version output is kept as an export:
:func:`split_at_assertions` (or :meth:`ExecutionPlan.breakpoint_programs`)
materialises one :class:`BreakpointProgram` — a full prefix program plus its
assertion — per breakpoint, e.g. to print or emit each version as OpenQASM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang.clifford import clifford_prefix_length
from ..lang.instructions import (
    AssertionInstruction,
    BarrierInstruction,
    BlockMarkerInstruction,
    GateInstruction,
    Instruction,
    MeasureInstruction,
    PrepInstruction,
)
from ..lang.program import Program
from ..lang.registers import Qubit

__all__ = [
    "PlanSegment",
    "ExecutionPlan",
    "BreakpointProgram",
    "build_execution_plan",
    "split_at_assertions",
]


@dataclass
class BreakpointProgram:
    """One breakpoint: a runnable prefix program plus the assertion to check.

    The paper's per-version export of a plan: the prefix program replays
    every non-assertion instruction before the breakpoint, exactly as the
    paper's per-version compilation does.
    """

    index: int
    name: str
    program: Program
    assertion: AssertionInstruction
    #: Number of unitary gates executed before the breakpoint (for reporting).
    gates_before: int

    def measured_qubits(self) -> list:
        """The qubits the early measurement at this breakpoint must read."""
        return self.assertion.qubits()

    def describe(self) -> str:
        return (
            f"breakpoint {self.index} ({self.name}): {self.gates_before} gates, "
            f"{self.assertion.describe()}"
        )


@dataclass
class PlanSegment:
    """The delta between two consecutive breakpoints.

    ``instructions`` holds every non-assertion instruction strictly between
    the previous breakpoint (or the program start for segment 0) and this
    segment's assertion.  Simulating the segments in order reconstructs every
    breakpoint prefix exactly once.
    """

    index: int
    name: str
    instructions: tuple[Instruction, ...]
    assertion: AssertionInstruction
    #: Cumulative unitary gates before this breakpoint (sum of deltas so far).
    gates_before: int
    #: Unitary gates inside this segment alone.
    gate_delta: int
    #: Leading instructions of this segment a stabilizer tableau can execute
    #: (classified structurally by :mod:`repro.lang.clifford`).
    clifford_prefix: int = 0
    #: True when *every* instruction in the segment is tableau-compatible.
    is_clifford: bool = False

    def measured_qubits(self) -> list[Qubit]:
        return self.assertion.qubits()

    def describe(self) -> str:
        regime = "clifford" if self.is_clifford else f"clifford<={self.clifford_prefix}"
        return (
            f"segment {self.index} ({self.name}): +{self.gate_delta} gates "
            f"(cumulative {self.gates_before}, {regime}), {self.assertion.describe()}"
        )


@dataclass
class ExecutionPlan:
    """Shared-prefix compilation of a program's breakpoints.

    The plan owns the source program (for register/qubit numbering) and the
    ordered segment list.  Walking the segments once and checkpointing at each
    assertion performs ``total_gates`` gate applications, versus
    ``sum(gates_before)`` for the legacy one-prefix-per-breakpoint scheme.
    """

    program: Program
    segments: list[PlanSegment] = field(default_factory=list)
    #: Content-address stamped by :class:`repro.compiler.plan_cache.PlanCache`
    #: (``None`` for plans built directly via :func:`build_execution_plan`).
    fingerprint: str | None = None
    #: Times this compiled plan was served from the cache instead of rebuilt.
    cache_hits: int = 0
    #: Gate applications skipped by runs served from shared prefix snapshots.
    shared_prefix_gates_saved: int = 0
    #: Breakpoints whose sampling the checker skipped on a static
    #: PROVEN/REFUTED verdict (``RunConfig.static_preflight``).
    static_short_circuits: int = 0
    #: Gate applications those short-circuits avoided entirely.
    static_gates_saved: int = 0
    #: Memory-aware routing decision recorded by the executor (e.g. a
    #: Clifford plan routed to the tableau because the width exceeds the
    #: host's dense budget); ``None`` until a routing decision is made.
    routing_note: str | None = None

    @property
    def num_breakpoints(self) -> int:
        return len(self.segments)

    @property
    def total_gates(self) -> int:
        """Unitary gate *instructions* a single incremental walk applies.

        ``PrepZ`` corrections are not gate instructions, so a backend's
        instrumented ``gates_applied`` counter can exceed this by one X per
        value-1 preparation; the asymptotic bound is unaffected because
        preparations, like gates, run once per walk instead of once per
        prefix.
        """
        return sum(segment.gate_delta for segment in self.segments)

    @property
    def legacy_gates(self) -> int:
        """Gate instructions the per-prefix scheme simulates (O(total_gates x k))."""
        return sum(segment.gates_before for segment in self.segments)

    # -- Clifford-prefix metadata (hybrid routing) ----------------------

    @property
    def is_clifford(self) -> bool:
        """True when the whole plan can run on the stabilizer tableau."""
        return all(segment.is_clifford for segment in self.segments)

    @property
    def clifford_prefix_segments(self) -> int:
        """Number of leading segments that are entirely Clifford.

        Every breakpoint inside this prefix is sampled directly off the
        tableau by the hybrid engine; the first non-Clifford gate (in the
        segment after this prefix) triggers the one-time tableau→statevector
        conversion.
        """
        count = 0
        for segment in self.segments:
            if not segment.is_clifford:
                break
            count += 1
        return count

    @property
    def clifford_prefix_gates(self) -> int:
        """Gate instructions inside the maximal Clifford prefix of the plan.

        This is exactly the gate work ``backend="auto"`` keeps off the dense
        statevector: the full deltas of the leading Clifford segments plus
        the Clifford head of the first mixed segment.
        """
        total = 0
        boundary = self.clifford_prefix_segments
        for segment in self.segments[:boundary]:
            total += segment.gate_delta
        if boundary < len(self.segments):
            head = self.segments[boundary]
            total += sum(
                1
                for instruction in head.instructions[: head.clifford_prefix]
                if isinstance(instruction, GateInstruction)
            )
        return total

    def breakpoint_programs(self) -> list[BreakpointProgram]:
        """The paper's per-version export: one prefix program per assertion.

        The instructions were validated against the same registers when the
        source program was built, so they are placed directly instead of
        re-validated through ``Program.append``.
        """
        programs = []
        cumulative: list = []
        for segment in self.segments:
            cumulative.extend(segment.instructions)
            prefix = Program(f"{self.program.name}_bp{segment.index}")
            for register in self.program.registers:
                prefix.add_register(register)
            prefix.instructions = list(cumulative)
            programs.append(
                BreakpointProgram(
                    index=segment.index,
                    name=segment.name,
                    program=prefix,
                    assertion=segment.assertion,
                    gates_before=segment.gates_before,
                )
            )
        return programs

    def describe(self) -> str:
        lines = [
            f"plan for {self.program.name}: {self.num_breakpoints} breakpoints, "
            f"{self.total_gates} gates incremental vs {self.legacy_gates} legacy"
        ]
        if self.fingerprint is not None:
            lines.append(
                f"  cached as {self.fingerprint[:12]}: {self.cache_hits} plan-cache "
                f"hits, {self.shared_prefix_gates_saved} shared-prefix gates saved"
            )
        if self.static_short_circuits:
            lines.append(
                f"  static analysis: {self.static_short_circuits} breakpoint(s) "
                f"short-circuited, {self.static_gates_saved} gates saved"
            )
        if self.routing_note:
            lines.append(f"  routing: {self.routing_note}")
        lines.extend(f"  {segment.describe()}" for segment in self.segments)
        return "\n".join(lines)


def build_execution_plan(program: Program) -> ExecutionPlan:
    """Compile ``program`` into an :class:`ExecutionPlan` of delta segments.

    Each assertion statement becomes one segment holding the instructions
    since the previous assertion.  Terminal measurements are excluded (the
    breakpoint's own early measurement replaces them); assertions themselves
    are never replayed because the early measurement that implements them
    would destroy the state.  Instructions after the last assertion do not
    belong to any segment — no breakpoint ever executes them.
    """
    plan = ExecutionPlan(program=program)
    pending: list[Instruction] = []
    pending_gates = 0
    cumulative_gates = 0
    for instruction in program.instructions:
        if isinstance(instruction, AssertionInstruction):
            cumulative_gates += pending_gates
            label = instruction.label or instruction.describe()
            prefix = clifford_prefix_length(pending)
            plan.segments.append(
                PlanSegment(
                    index=len(plan.segments),
                    name=label,
                    instructions=tuple(pending),
                    assertion=instruction,
                    gates_before=cumulative_gates,
                    gate_delta=pending_gates,
                    clifford_prefix=prefix,
                    is_clifford=prefix == len(pending),
                )
            )
            pending = []
            pending_gates = 0
            continue
        if isinstance(instruction, MeasureInstruction):
            # Terminal measurements are not part of any breakpoint prefix; the
            # breakpoint's own early measurement replaces them.
            continue
        if isinstance(instruction, GateInstruction):
            pending_gates += 1
        elif not isinstance(
            instruction, (PrepInstruction, BarrierInstruction, BlockMarkerInstruction)
        ):  # pragma: no cover - defensive
            raise TypeError(f"unexpected instruction type {type(instruction)!r}")
        pending.append(instruction)
    return plan


def split_at_assertions(program: Program) -> list[BreakpointProgram]:
    """Split ``program`` into one breakpoint program per assertion statement.

    The per-version export of :func:`build_execution_plan`: each returned
    :class:`BreakpointProgram` contains every non-assertion instruction that
    precedes its assertion in the original program (gates, preparations,
    barriers and block markers), materialised from the plan's shared-prefix
    segments.
    """
    return build_execution_plan(program).breakpoint_programs()
