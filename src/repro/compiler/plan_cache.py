"""Cross-run plan and breakpoint-snapshot reuse (the ``PlanCache``).

A sweep is N near-identical experiments: every point used to re-split the
same program, re-classify the same Clifford prefix, and re-walk the same
noiseless prefix before noise or readout ever differentiated the points.
This module removes that redundancy at two levels:

* **Plan reuse.**  :func:`program_fingerprint` derives a stable
  content-address for a program — canonical over gate *spellings* (``s`` and
  ``rz(pi/2)`` fingerprint identically via the phase-canonical matrix keying
  of :mod:`repro.sim.clifford`) — and :class:`PlanCache` maps fingerprints to
  compiled :class:`~repro.compiler.splitter.ExecutionPlan` objects, Clifford
  classification included.  Repeated ``session.check`` calls and sweep points
  compile each unique program exactly once.
* **Prefix-snapshot reuse.**  For runs whose plan walk is noiseless and
  rng-free (no gate-noise channels, no mid-circuit resets of superposed
  qubits), the breakpoint states depend only on (program, backend family).
  The first walk records one snapshot token and one outcome CDF per
  breakpoint (:class:`SnapshotSet`); later runs draw their ensembles from
  the recorded CDFs (or, where a backend's draw is not one marginal, restore
  the token), skipping the gate work entirely.  Because the recorded
  walk consumes no rng draws, a snapshot-served run is verdict- and
  stream-identical to a cold one — reuse is a pure work optimisation, never a
  statistics change.

The process-global :func:`default_plan_cache` is wired into
:class:`repro.compiler.executor.BreakpointExecutor`; hit/miss
counters make the reuse observable from ``ExecutionPlan.describe()`` and
``repro.workloads.assertion_cost``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..lang.instructions import (
    AssertionInstruction,
    AssertObservableInstruction,
    BarrierInstruction,
    BlockMarkerInstruction,
    ClassicalAssertInstruction,
    EntangledAssertInstruction,
    GateInstruction,
    MeasureInstruction,
    PrepInstruction,
    ProductAssertInstruction,
    SuperpositionAssertInstruction,
)
from ..lang.program import Program
from ..sim.backend import SimulationBackend
from ..sim.clifford import _canonical_key as _phase_canonical_key
from .splitter import ExecutionPlan, build_execution_plan

__all__ = [
    "program_fingerprint",
    "SnapshotSet",
    "PlanCache",
    "default_plan_cache",
]


# -- program fingerprinting -------------------------------------------------

#: Memoised canonical gate keys, by (name, params, num_controls).  Uncontrolled
#: gates key phase-canonically (global phase never changes measurement
#: statistics); controlled gates key on the exact base matrix, because the
#: base gate's global phase becomes a relative phase on the control — the same
#: distinction :mod:`repro.sim.clifford` draws for tableau recognition.
_GATE_KEYS: "dict[tuple, bytes]" = {}


def _gate_key(instruction: GateInstruction) -> bytes:
    cache_key = (instruction.name, instruction.params, bool(instruction.controls))
    key = _GATE_KEYS.get(cache_key)
    if key is None:
        matrix = instruction.base_matrix()
        if instruction.controls:
            key = (np.round(np.asarray(matrix, dtype=complex), 6) + 0.0).tobytes()
        else:
            key = _phase_canonical_key(matrix) or matrix.tobytes()
        _GATE_KEYS[cache_key] = key
    return key


#: Exact canonical key of the X matrix, used to canonicalise ``PrepZ(q, 1)``
#: as ``PrepZ(q, 0); X q`` — the lowering OpenQASM export performs — so a
#: program and its QASM round-trip fingerprint identically.
_ASSERTION_TAGS = {
    ClassicalAssertInstruction: "classical",
    SuperpositionAssertInstruction: "superposition",
    EntangledAssertInstruction: "entangled",
    ProductAssertInstruction: "product",
    AssertObservableInstruction: "observable",
}


def _update_gate(hasher, key: bytes, controls, targets) -> None:
    hasher.update(b"g")
    hasher.update(key)
    hasher.update(("c" + ",".join(map(str, controls))).encode())
    hasher.update(("t" + ",".join(map(str, targets))).encode())


def program_fingerprint(program: Program) -> str:
    """Stable content-address of a program's checking semantics.

    Two programs share a fingerprint exactly when they compile to equivalent
    execution plans: same register layout, same gate stream up to spelling
    (phase-canonical base matrices, exact matrices under controls), same
    preparations (``PrepZ(q, 1)`` canonicalised to ``PrepZ(q, 0); X q``),
    and same assertions (type, operands, expected values, labels).
    Barriers, block markers and terminal measurements never affect the plan
    walk and are excluded, which is what makes the fingerprint stable across
    an OpenQASM round trip.

    The digest is memoised on the program's
    :class:`~repro.lang.program.InstructionList`, so a warm re-check hashes
    nothing.  Every change that can move the digest drops the memo: any
    in-place change or assignment of ``program.instructions``,
    ``add_register`` and ``suppress_lint`` (instructions are frozen).
    """
    instructions = program.instructions
    if instructions.fingerprint is not None:
        return instructions.fingerprint
    hasher = hashlib.sha256()
    for register in program.registers:
        hasher.update(f"r:{register.name}:{register.size};".encode())
    # Lint suppressions change the diagnostics embedded in cached analysis
    # results, so suppressing programs address distinct cache entries; the
    # common (no-suppression) case keeps its historical fingerprint.
    if program.lint_suppressions:
        hasher.update(f"q:{sorted(program.lint_suppressions)};".encode())
    x_key = None
    for instruction in instructions:
        if isinstance(instruction, GateInstruction):
            _update_gate(
                hasher,
                _gate_key(instruction),
                [program.qubit_index(q) for q in instruction.controls],
                [program.qubit_index(q) for q in instruction.targets],
            )
        elif isinstance(instruction, PrepInstruction):
            index = program.qubit_index(instruction.qubit)
            hasher.update(f"p:{index};".encode())
            if instruction.value == 1:
                if x_key is None:
                    x_key = _gate_key(GateInstruction(name="x", targets=(instruction.qubit,)))
                _update_gate(hasher, x_key, [], [index])
        elif isinstance(instruction, AssertionInstruction):
            tag = _ASSERTION_TAGS[type(instruction)]
            hasher.update(f"a:{tag}:{instruction.label};".encode())
            if isinstance(instruction, ClassicalAssertInstruction):
                indices = [program.qubit_index(q) for q in instruction.measured]
                hasher.update(f"{indices}={instruction.value};".encode())
            elif isinstance(instruction, AssertObservableInstruction):
                indices = [program.qubit_index(q) for q in instruction.targets]
                terms = [
                    (term.label(), repr(term.coefficient.real))
                    for term in instruction.observable.terms
                ]
                hasher.update(
                    f"{indices}:{terms}=={instruction.expectation!r}"
                    f"~{instruction.tolerance!r};".encode()
                )
            elif isinstance(instruction, SuperpositionAssertInstruction):
                indices = [program.qubit_index(q) for q in instruction.measured]
                values = sorted(instruction.values) if instruction.values else None
                hasher.update(f"{indices}~{values};".encode())
            else:
                group_a = [program.qubit_index(q) for q in instruction.group_a]
                group_b = [program.qubit_index(q) for q in instruction.group_b]
                hasher.update(f"{group_a}|{group_b};".encode())
        elif isinstance(
            instruction,
            (BarrierInstruction, BlockMarkerInstruction, MeasureInstruction),
        ):
            continue
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected instruction type {type(instruction)!r}")
    instructions.fingerprint = hasher.hexdigest()
    return instructions.fingerprint


def walk_is_deterministic(plan: ExecutionPlan) -> bool:
    """True when walking the plan can never consume an rng draw.

    ``PrepZ`` is exact on basis-state qubits and falls back to a
    measurement-based reset (one rng draw) only on superposed qubits.  A
    qubit can be superposed only after a gate touched it, so the walk is
    rng-free when no preparation follows a gate on the same qubit — the
    conservative static condition under which breakpoint snapshots may be
    shared across runs without perturbing any rng stream.
    """
    touched: set = set()
    for segment in plan.segments:
        for instruction in segment.instructions:
            if isinstance(instruction, GateInstruction):
                touched.update(instruction.qubits())
            elif isinstance(instruction, PrepInstruction):
                if instruction.qubit in touched:
                    return False
    return True


# -- snapshot sets ----------------------------------------------------------


@dataclass
class SnapshotSet:
    """One recorded noiseless plan walk on one backend family.

    Holds the (cache-owned) backend instance left at the end of the walk,
    one snapshot token per plan segment, and the gate work the walk cost —
    which is exactly the work every snapshot-served run saves.  Beside each
    token sits the read-only outcome CDF of the breakpoint's assertion
    qubits (``None`` where the engine's draw is not one marginal): served
    runs draw from it without touching ``engine``.  Runs that must still
    restore a token into the shared engine hold ``lock`` from the restore
    to the end of their readout.
    """

    backend_name: str
    engine: SimulationBackend
    tokens: list = field(default_factory=list)
    cdfs: "list[np.ndarray | None]" = field(default_factory=list)
    #: Gate applications the recorded walk performed (total / dense subset).
    walk_gates: int = 0
    walk_statevector_gates: int = 0
    #: Times this set served a run without re-walking.
    hits: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


@dataclass
class _CacheEntry:
    fingerprint: str
    plan: ExecutionPlan
    #: True when the plan walk is rng-free (snapshot sharing is sound).
    deterministic_walk: bool
    #: Recorded walks keyed by resolved backend name.
    snapshots: "dict[str, SnapshotSet]" = field(default_factory=dict)
    #: Cached static-analysis results (verdicts + diagnostics) keyed by the
    #: effective support-enumeration cap; computed on first request per cap,
    #: valid for every noise-free config of the program.
    analysis: "dict[int, object]" = field(default_factory=dict)


class PlanCache:
    """Content-addressed cache of execution plans and breakpoint snapshots.

    ``plan_for(program)`` returns the compiled plan for the program's
    fingerprint, building (and Clifford-classifying) it at most once per
    unique program; ``snapshots_for(plan, backend_name)`` returns the
    recorded :class:`SnapshotSet` for a backend family, or ``None`` when the
    executor must walk (and record).  Eviction is LRU over plans with a
    small default capacity — entries own backend instances, so the cache is
    bounded by construction.

    The cache is safe to share across sequential runs in one process, and
    ``plan_for`` is safe to hammer from many threads: a per-fingerprint
    in-flight marker coalesces concurrent compiles, so each unique program
    is built exactly once no matter how many threads ask for it at the same
    instant (the builders that arrive late wait and count as hits).
    Concurrent *sampling* from one cached engine is still not supported —
    process-sharded sweeps give every worker its own cache.
    """

    def __init__(self, max_entries: int = 64):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[str, _CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        #: Per-fingerprint events marking builds in progress; threads that
        #: lose the build race wait on the event instead of compiling again.
        self._inflight: "dict[str, threading.Event]" = {}
        self.hits = 0
        self.misses = 0
        self.snapshot_hits = 0
        self.snapshot_misses = 0
        #: Cumulative gate applications skipped by snapshot-served runs.
        self.gates_saved = 0
        self.analysis_hits = 0
        self.analysis_misses = 0
        #: Breakpoints whose sampling the checker skipped on a static verdict.
        self.static_short_circuits = 0
        #: Cumulative gate applications those short-circuits avoided.
        self.static_gates_saved = 0

    # -- plans ----------------------------------------------------------

    def plan_for(self, program: Program) -> ExecutionPlan:
        """The compiled plan for ``program``, compiled at most once.

        Concurrent calls for the same fingerprint coalesce: the first
        caller builds while the rest wait on an in-flight marker and are
        then served the cached plan (counted as hits).  ``misses`` therefore
        counts *builds*, so after any amount of concurrent hammering
        ``misses == unique programs compiled`` and ``hits + misses == calls``.
        """
        fingerprint = program_fingerprint(program)
        while True:
            with self._lock:
                entry = self._entries.get(fingerprint)
                if entry is not None:
                    self._entries.move_to_end(fingerprint)
                    self.hits += 1
                    entry.plan.cache_hits += 1
                    return entry.plan
                pending = self._inflight.get(fingerprint)
                if pending is None:
                    pending = threading.Event()
                    self._inflight[fingerprint] = pending
                    building = True
                else:
                    building = False
            if not building:
                # Another thread is compiling this fingerprint right now;
                # wait for it, then loop back to the hit path.  (If the
                # builder failed — or its entry was evicted under extreme
                # pressure — the loop simply elects a fresh builder.)
                pending.wait()
                continue
            try:
                plan = build_execution_plan(program)
                plan.fingerprint = fingerprint
                with self._lock:
                    self.misses += 1
                    self._entries[fingerprint] = _CacheEntry(
                        fingerprint=fingerprint,
                        plan=plan,
                        deterministic_walk=walk_is_deterministic(plan),
                    )
                    while len(self._entries) > self.max_entries:
                        self._entries.popitem(last=False)
                return plan
            finally:
                with self._lock:
                    self._inflight.pop(fingerprint, None)
                pending.set()

    def shareable(self, plan: ExecutionPlan) -> bool:
        """True when breakpoint snapshots of ``plan`` may serve other runs."""
        if plan.fingerprint is None:
            return False
        with self._lock:
            entry = self._entries.get(plan.fingerprint)
        return entry is not None and entry.deterministic_walk

    # -- snapshots ------------------------------------------------------

    def snapshots_for(
        self, plan: ExecutionPlan, backend_name: str
    ) -> SnapshotSet | None:
        """The recorded walk for (plan, backend family), if one exists."""
        if plan.fingerprint is None:
            return None
        with self._lock:
            entry = self._entries.get(plan.fingerprint)
            if entry is None or not entry.deterministic_walk:
                return None
            snapshot_set = entry.snapshots.get(backend_name)
            if snapshot_set is None:
                self.snapshot_misses += 1
                return None
            self.snapshot_hits += 1
            snapshot_set.hits += 1
            self.gates_saved += snapshot_set.walk_gates
            plan.shared_prefix_gates_saved += snapshot_set.walk_gates
        return snapshot_set

    def record_snapshots(
        self, plan: ExecutionPlan, snapshot_set: SnapshotSet
    ) -> None:
        """Store a freshly recorded walk for later runs to restore from."""
        if plan.fingerprint is None:
            return
        with self._lock:
            entry = self._entries.get(plan.fingerprint)
            if entry is not None and entry.deterministic_walk:
                entry.snapshots[snapshot_set.backend_name] = snapshot_set

    # -- static analysis -------------------------------------------------

    def analysis_for(self, plan: ExecutionPlan, max_support: "int | None" = None):
        """The static :class:`~repro.analysis.AnalysisResult` for ``plan``.

        Computed once per (fingerprint, support cap) and cached on the plan's
        entry — verdicts depend only on the program and the enumeration cap,
        never on ensemble size, seed or significance, so one analysis serves
        every noise-free sweep point at that cap.  Plans without a
        fingerprint are analyzed fresh each call.
        """
        # Runtime import: analysis sits above the compiler layer (it walks
        # plans), so the compiler must not import it at module scope.
        from ..analysis import SUPPORT_LIMIT, analyze_plan

        cap = SUPPORT_LIMIT if max_support is None else int(max_support)
        fingerprint = plan.fingerprint
        if fingerprint is not None:
            with self._lock:
                entry = self._entries.get(fingerprint)
                if entry is not None and cap in entry.analysis:
                    self.analysis_hits += 1
                    return entry.analysis[cap]
        result = analyze_plan(plan, max_support=cap)
        with self._lock:
            self.analysis_misses += 1
            if fingerprint is not None:
                entry = self._entries.get(fingerprint)
                if entry is not None:
                    entry.analysis[cap] = result
        return result

    def record_static_short_circuit(
        self, breakpoints: int, gates_saved: int
    ) -> None:
        """Account for breakpoints the checker skipped on static verdicts."""
        with self._lock:
            self.static_short_circuits += breakpoints
            self.static_gates_saved += gates_saved

    # -- bookkeeping ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every cached plan and snapshot and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.snapshot_hits = 0
            self.snapshot_misses = 0
            self.gates_saved = 0
            self.analysis_hits = 0
            self.analysis_misses = 0
            self.static_short_circuits = 0
            self.static_gates_saved = 0

    def stats(self) -> dict:
        """Counter snapshot: plans cached, hit/miss rates, gates saved."""
        with self._lock:
            return {
                "plans": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "snapshot_hits": self.snapshot_hits,
                "snapshot_misses": self.snapshot_misses,
                "gates_saved": self.gates_saved,
                "analysis_hits": self.analysis_hits,
                "analysis_misses": self.analysis_misses,
                "static_short_circuits": self.static_short_circuits,
                "static_gates_saved": self.static_gates_saved,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanCache({self.stats()!r})"


#: The process-global cache every executor constructed without an explicit
#: cache uses.  Workers of a process-sharded sweep each get their own.
_DEFAULT_CACHE: PlanCache | None = None


def default_plan_cache() -> PlanCache:
    """The process-global :class:`PlanCache` (created on first use)."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = PlanCache()
    return _DEFAULT_CACHE
