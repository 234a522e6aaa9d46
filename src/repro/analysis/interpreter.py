"""Stabilizer-domain abstract interpreter: static assertion verdicts.

The interpreter walks an :class:`~repro.compiler.splitter.ExecutionPlan` in
the stabilizer abstract domain and **decides** breakpoint assertions without
drawing a single sample.  The domain is a product of

* an exact Aaronson–Gottesman tableau (reused from
  :mod:`repro.sim.stabilizer_backend`) carrying the joint state of every
  *clean* qubit,
* a taint set ``top`` — qubits touched (directly or through entanglement) by
  a skipped non-Clifford gate, about which nothing is claimed, and
* a union–find over qubits, merged on every multi-qubit gate: a sound
  over-approximation of "has ever been entangled with", used to taint whole
  components when a measurement-like event (mid-circuit prep on a
  non-deterministic qubit) collapses one member.

**Soundness invariant**: at every step, the reduced state of the clean
(non-``top``) qubits equals the tableau's reduced state on those qubits.
Skipping a unitary on tainted operands preserves it (a channel applied to
the complement cannot change a subsystem's reduced state); applying a
Clifford on clean operands preserves it exactly; a prep on a clean
*deterministic* qubit is an exact ``I``/``X`` (a deterministic Z outcome
means the qubit is unentangled); a prep on anything else taints the qubit's
entire union–find component before force-collapsing the target back to a
clean constant.

Per-qubit abstract state (the lattice reported by
:attr:`AnalysisResult.qubit_states`)::

    zero (never touched) < classical < superposed < entangled < top

**Decision procedures** are exact on clean operands.  A stabilizer state's
measurement distribution over any qubit subset is uniform on an affine
subspace of outcomes, so every verdict reduces to integer support
arithmetic, computed by the capped branching-tree enumeration
:func:`repro.sim.stabilizer_backend.tableau_outcome_distribution`:

* ``assert_classical``: every operand's Z outcome deterministic and the bits
  assemble to the expected value;
* ``assert_superposition``: the support set equals the expected support
  (bailing to UNDECIDED when the expected support exceeds the enumeration
  cap);
* ``assert_entangled`` / ``assert_product``: the joint support factorises,
  ``|supp(A,B)| == |supp(A)| * |supp(B)|``, iff the outcome distributions
  are statistically independent — matching the *statistical* semantics of
  the paper's test (a CZ graph state with uniform Z statistics is PROVEN
  product here, exactly as the sampled contingency test would pass it).

Verdicts are PROVEN / REFUTED / UNDECIDED; UNDECIDED appears only when an
operand is tainted (``top``) or a support enumeration exceeds
``SUPPORT_LIMIT``.  On a Clifford-only program nothing ever taints, so every
breakpoint decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..compiler.splitter import ExecutionPlan, build_execution_plan
from ..lang.clifford import clifford_ops
from ..lang.instructions import (
    AssertionInstruction,
    AssertObservableInstruction,
    ClassicalAssertInstruction,
    EntangledAssertInstruction,
    GateInstruction,
    PrepInstruction,
    SuperpositionAssertInstruction,
)
from ..lang.program import Program
from ..sim.stabilizer_backend import (
    _Tableau,
    tableau_outcome_distribution,
    tableau_pauli_expectation,
)
from .diagnostics import Diagnostic
from .linter import lint_program

__all__ = [
    "PROVEN",
    "REFUTED",
    "UNDECIDED",
    "SUPPORT_LIMIT",
    "AssertionVerdict",
    "AnalysisResult",
    "analyze_plan",
    "analyze_program",
]

PROVEN = "proven"
REFUTED = "refuted"
UNDECIDED = "undecided"

#: Support-enumeration cap: verdicts needing more than this many distinct
#: outcomes fall back to UNDECIDED instead of paying for the full tree.
SUPPORT_LIMIT = 4096


@dataclass(frozen=True)
class AssertionVerdict:
    """The static verdict for one breakpoint assertion."""

    index: int
    name: str
    assertion_type: str
    verdict: str
    reason: str

    @property
    def decided(self) -> bool:
        return self.verdict != UNDECIDED

    @property
    def passed(self) -> "bool | None":
        """The sampled-world outcome this verdict predicts (None if undecided)."""
        if self.verdict == UNDECIDED:
            return None
        return self.verdict == PROVEN

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "assertion_type": self.assertion_type,
            "verdict": self.verdict,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AssertionVerdict":
        return cls(
            index=int(data["index"]),
            name=str(data["name"]),
            assertion_type=str(data["assertion_type"]),
            verdict=str(data["verdict"]),
            reason=str(data["reason"]),
        )

    def __str__(self) -> str:
        return (
            f"breakpoint {self.index} [{self.name}] {self.assertion_type}: "
            f"{self.verdict.upper()} — {self.reason}"
        )


@dataclass
class AnalysisResult:
    """Everything the static analyzer learned about one program."""

    program_name: str
    fingerprint: "str | None"
    verdicts: list[AssertionVerdict] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Final abstract tag per qubit (``repr(qubit)`` -> lattice element).
    qubit_states: dict[str, str] = field(default_factory=dict)
    #: Tableau gate applications the walk cost — the honest price of the
    #: analysis, comparable with executor gate counters.
    analysis_gates: int = 0

    @property
    def num_proven(self) -> int:
        return sum(v.verdict == PROVEN for v in self.verdicts)

    @property
    def num_refuted(self) -> int:
        return sum(v.verdict == REFUTED for v in self.verdicts)

    @property
    def num_undecided(self) -> int:
        return sum(v.verdict == UNDECIDED for v in self.verdicts)

    @property
    def all_decided(self) -> bool:
        return self.num_undecided == 0

    def verdict_for(self, index: int) -> "AssertionVerdict | None":
        for verdict in self.verdicts:
            if verdict.index == index:
                return verdict
        return None

    def decided_indices(self) -> frozenset:
        return frozenset(v.index for v in self.verdicts if v.decided)

    def to_dict(self) -> dict:
        return {
            "program_name": self.program_name,
            "fingerprint": self.fingerprint,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "qubit_states": dict(self.qubit_states),
            "analysis_gates": int(self.analysis_gates),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AnalysisResult":
        return cls(
            program_name=str(data["program_name"]),
            fingerprint=data.get("fingerprint"),
            verdicts=[AssertionVerdict.from_dict(v) for v in data.get("verdicts", [])],
            diagnostics=[
                Diagnostic.from_dict(d) for d in data.get("diagnostics", [])
            ],
            qubit_states=dict(data.get("qubit_states", {})),
            analysis_gates=int(data.get("analysis_gates", 0)),
        )

    def summary(self) -> str:
        lines = [
            f"Static analysis of {self.program_name!r}: "
            f"{self.num_proven} proven, {self.num_refuted} refuted, "
            f"{self.num_undecided} undecided "
            f"({self.analysis_gates} tableau gate(s))"
        ]
        lines.extend(f"  {verdict}" for verdict in self.verdicts)
        for diagnostic in self.diagnostics:
            lines.append(f"  {diagnostic}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.summary()


class _AbstractState:
    """Tableau + taint set + union-find; one instance per analysis walk."""

    def __init__(self, program: Program, max_support: "int | None" = None):
        self.program = program
        self.n = program.num_qubits
        self.tableau = _Tableau(self.n) if self.n else None
        self.top: set[int] = set()
        self.touched: set[int] = set()
        self._parent = list(range(self.n))
        #: A root's component, in merge order; ``None`` at every non-root.
        self._members: "list[list[int] | None]" = [[i] for i in range(self.n)]
        self.analysis_gates = 0
        if max_support is None:
            self.max_support = SUPPORT_LIMIT
        else:
            self.max_support = int(max_support)
            if self.max_support <= 0:
                raise ValueError("max_support must be positive")

    # -- union-find ----------------------------------------------------

    def _find(self, a: int) -> int:
        parent = self._parent
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def _union(self, a: int, b: int) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        members = self._members
        if len(members[ra]) < len(members[rb]):
            ra, rb = rb, ra
        self._parent[rb] = ra
        members[ra].extend(members[rb])
        members[rb] = None

    def _component(self, a: int) -> "list[int]":
        """The qubits sharing ``a``'s component (the root's own list)."""
        return self._members[self._find(a)]

    # -- transfer functions --------------------------------------------

    def step(self, instruction) -> None:
        if isinstance(instruction, GateInstruction):
            self._step_gate(instruction)
        elif isinstance(instruction, PrepInstruction):
            self._step_prep(instruction)
        # Barriers, markers, measures and assertions are transparent: the
        # executor evaluates assertions from snapshots and defers measures.

    def _step_gate(self, instruction: GateInstruction) -> None:
        program = self.program
        controls = [program.qubit_index(q) for q in instruction.controls]
        targets = [program.qubit_index(q) for q in instruction.targets]
        indices = controls + targets
        self.touched.update(indices)
        # Merge components *before* deciding whether to apply: entanglement
        # created by an applied gate must be visible when a later skipped
        # gate taints one end of it.
        for other in indices[1:]:
            self._union(indices[0], other)
        ops = clifford_ops(instruction)
        if ops is None or not self.top.isdisjoint(indices):
            # Non-Clifford, or touching already-tainted state: skip the
            # unitary and taint every operand.  Sound — a skipped channel on
            # the complement never changes the clean qubits' reduced state.
            self.top.update(indices)
            return
        self.tableau.apply_ops(ops, indices)
        self.analysis_gates += 1

    def _step_prep(self, instruction: PrepInstruction) -> None:
        q = self.program.qubit_index(instruction.qubit)
        self.touched.add(q)
        deterministic = (
            self.tableau.deterministic_outcome(q) if q not in self.top else None
        )
        if deterministic is None:
            # Measurement-based reset: collapsing q perturbs whatever it is
            # (or ever was) entangled with — taint the whole component, then
            # force q itself back to a clean constant.
            self.top.update(self._component(q))
            deterministic = self.tableau.deterministic_outcome(q)
            if deterministic is None:
                self.tableau.collapse(q, 0)
                deterministic = 0
            self.top.discard(q)
        if deterministic != instruction.value:
            self.tableau.xgate(q)
        self.analysis_gates += 1

    # -- decision procedures -------------------------------------------

    def _tainted(self, indices: list[int]):
        return [q for q in indices if q in self.top]

    def _undecided(self, qubits, indices) -> tuple[str, str]:
        names = ", ".join(
            repr(q) for q, qi in zip(qubits, indices) if qi in self.top
        )
        return (
            UNDECIDED,
            f"operand(s) {names} reached TOP (touched by a non-Clifford gate)",
        )

    def decide(self, assertion: AssertionInstruction) -> tuple[str, str]:
        """(verdict, reason) for ``assertion`` against the current state."""
        if isinstance(assertion, ClassicalAssertInstruction):
            return self._decide_classical(assertion)
        if isinstance(assertion, SuperpositionAssertInstruction):
            return self._decide_superposition(assertion)
        if isinstance(assertion, EntangledAssertInstruction):
            return self._decide_joint(assertion, want_entangled=True)
        if isinstance(assertion, AssertObservableInstruction):
            return self._decide_observable(assertion)
        return self._decide_joint(assertion, want_entangled=False)

    def _decide_classical(self, assertion) -> tuple[str, str]:
        qubits = list(assertion.measured)
        indices = [self.program.qubit_index(q) for q in qubits]
        if self._tainted(indices):
            return self._undecided(qubits, indices)
        bits = [self.tableau.deterministic_outcome(qi) for qi in indices]
        random = [q for q, bit in zip(qubits, bits) if bit is None]
        if random:
            return (
                REFUTED,
                f"{', '.join(repr(q) for q in random)} have 50/50 measurement "
                "outcomes; the register is not classical",
            )
        observed = sum(bit << pos for pos, bit in enumerate(bits))
        if observed != assertion.value:
            return (
                REFUTED,
                f"register deterministically reads {observed}, "
                f"expected {assertion.value}",
            )
        return (
            PROVEN,
            f"all {len(indices)} qubit(s) deterministically read {observed}",
        )

    def _decide_superposition(self, assertion) -> tuple[str, str]:
        qubits = list(assertion.measured)
        indices = [self.program.qubit_index(q) for q in qubits]
        if self._tainted(indices):
            return self._undecided(qubits, indices)
        k = len(indices)
        if assertion.values is None:
            if k > self.max_support.bit_length() - 1:
                return (
                    UNDECIDED,
                    f"expected support 2^{k} exceeds the {self.max_support}-outcome "
                    "enumeration cap",
                )
            expected = set(range(1 << k))
        else:
            expected = set(assertion.values)
            if len(expected) > self.max_support:
                return (
                    UNDECIDED,
                    f"expected support of {len(expected)} exceeds the "
                    f"{self.max_support}-outcome enumeration cap",
                )
        distribution = tableau_outcome_distribution(
            self.tableau, indices, max_support=len(expected)
        )
        if distribution is None:
            return (
                REFUTED,
                f"measurement support has more than {len(expected)} outcomes, "
                "so it cannot equal the asserted support",
            )
        support = set(distribution)
        if support == expected:
            return (
                PROVEN,
                f"uniform over exactly the asserted {len(expected)}-outcome "
                "support",
            )
        missing = sorted(expected - support)[:4]
        extra = sorted(support - expected)[:4]
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"unexpected {extra}")
        return (
            REFUTED,
            f"support has {len(support)} outcome(s), expected {len(expected)} "
            f"({'; '.join(detail)})",
        )

    def _decide_joint(self, assertion, want_entangled: bool) -> tuple[str, str]:
        group_a = list(assertion.group_a)
        group_b = list(assertion.group_b)
        qubits = group_a + group_b
        indices = [self.program.qubit_index(q) for q in qubits]
        if self._tainted(indices):
            return self._undecided(qubits, indices)
        distribution = tableau_outcome_distribution(
            self.tableau, indices, max_support=self.max_support
        )
        if distribution is None:
            return (
                UNDECIDED,
                f"joint support exceeds the {self.max_support}-outcome "
                "enumeration cap",
            )
        la = len(group_a)
        mask = (1 << la) - 1
        support = set(distribution)
        support_a = {value & mask for value in support}
        support_b = {value >> la for value in support}
        independent = len(support) == len(support_a) * len(support_b)
        detail = (
            f"joint support {len(support)} vs "
            f"{len(support_a)} x {len(support_b)} marginal product"
        )
        if want_entangled:
            if independent:
                return (
                    REFUTED,
                    f"outcome distributions are independent ({detail}); the "
                    "statistical test cannot observe dependence",
                )
            return (PROVEN, f"outcome distributions are dependent ({detail})")
        if independent:
            return (PROVEN, f"outcome distributions are independent ({detail})")
        return (
            REFUTED,
            f"outcome distributions are dependent ({detail}); the groups are "
            "not in a product state",
        )

    def _decide_observable(self, assertion) -> tuple[str, str]:
        qubits = [assertion.targets[i] for i in assertion.support_indices()]
        indices = [self.program.qubit_index(q) for q in qubits]
        if self._tainted(indices):
            return self._undecided(qubits, indices)
        # Remap each term's symplectic masks (over the assertion's operand
        # list) onto program qubit indices, then read the exact expectation
        # off the stabilizer group — no enumeration, no sampling.
        value = 0.0
        for term in assertion.observable.terms:
            x_mask, z_mask = term.symplectic_masks()
            gx = gz = 0
            for bit in range(term.num_qubits):
                qi = self.program.qubit_index(assertion.targets[bit])
                if (x_mask >> bit) & 1:
                    gx |= 1 << qi
                if (z_mask >> bit) & 1:
                    gz |= 1 << qi
            value += term.coefficient.real * tableau_pauli_expectation(
                self.tableau, gx, gz
            )
        deviation = abs(value - assertion.expectation)
        if deviation <= assertion.tolerance + 1e-9:
            return (
                PROVEN,
                f"exact <H> = {value:.6g} is within {assertion.tolerance:.6g} "
                f"of {assertion.expectation:.6g}",
            )
        return (
            REFUTED,
            f"exact <H> = {value:.6g} deviates from {assertion.expectation:.6g} "
            f"by {deviation:.6g} (> tolerance {assertion.tolerance:.6g})",
        )

    # -- reporting ------------------------------------------------------

    def qubit_state_map(self) -> dict[str, str]:
        states: dict[str, str] = {}
        # Component root -> how many of its members are not TOP.
        clean: dict[int, int] = {}
        for register in self.program.registers:
            for qubit in register:
                qi = self.program.qubit_index(qubit)
                if qi in self.top:
                    tag = "top"
                elif qi not in self.touched:
                    tag = "zero"
                elif not self.tableau.is_random(qi):
                    tag = "classical"
                else:
                    root = self._find(qi)
                    if root not in clean:
                        clean[root] = sum(
                            m not in self.top for m in self._members[root]
                        )
                    tag = "entangled" if clean[root] > 1 else "superposed"
                states[repr(qubit)] = tag
        return states


def _assertion_type(assertion: AssertionInstruction) -> str:
    if isinstance(assertion, ClassicalAssertInstruction):
        return "classical"
    if isinstance(assertion, SuperpositionAssertInstruction):
        return "superposition"
    if isinstance(assertion, EntangledAssertInstruction):
        return "entangled"
    if isinstance(assertion, AssertObservableInstruction):
        return "observable"
    return "product"


def analyze_plan(
    plan: ExecutionPlan, max_support: "int | None" = None
) -> AnalysisResult:
    """Walk ``plan`` in the stabilizer abstract domain and decide every
    breakpoint; also lints the underlying program.

    ``max_support`` caps how many distinct outcomes the support-enumeration
    verdicts will materialise before falling back to UNDECIDED (default
    :data:`SUPPORT_LIMIT`; configurable per run via
    ``RunConfig.max_support``).

    Prefer :meth:`repro.compiler.plan_cache.PlanCache.analysis_for` (or
    :meth:`repro.Session.analyze`) for repeated calls — results are cached by
    ``program_fingerprint``.
    """
    program = plan.program
    state = _AbstractState(program, max_support=max_support)
    verdicts: list[AssertionVerdict] = []
    for segment in plan.segments:
        for instruction in segment.instructions:
            state.step(instruction)
        verdict, reason = state.decide(segment.assertion)
        verdicts.append(
            AssertionVerdict(
                index=segment.index,
                name=segment.name,
                assertion_type=_assertion_type(segment.assertion),
                verdict=verdict,
                reason=reason,
            )
        )
    return AnalysisResult(
        program_name=program.name,
        fingerprint=plan.fingerprint,
        verdicts=verdicts,
        diagnostics=lint_program(program),
        qubit_states=state.qubit_state_map(),
        analysis_gates=state.analysis_gates,
    )


def analyze_program(
    program: Program, max_support: "int | None" = None
) -> AnalysisResult:
    """Analyze a bare :class:`Program` (compiles a fresh, uncached plan)."""
    result = analyze_plan(build_execution_plan(program), max_support=max_support)
    if result.fingerprint is None:
        from ..compiler.plan_cache import program_fingerprint

        result.fingerprint = program_fingerprint(program)
    return result
