"""Breakpoint execution: walk execution plans and collect ensembles.

The paper "simulates an ensemble of executions for each of the programs ending
at each breakpoint" on the QX simulator.  The executor below reproduces that
step on the pluggable simulation backends with one walk over the
:class:`~repro.compiler.splitter.ExecutionPlan`.  Every breakpoint goes
through the same two steps:

1. **advance** — run the segment's delta instructions on the engine; a run
   served from the plan cache's recorded snapshots skips this step;
2. **measure** — draw the breakpoint's ensemble (or its per-setting
   observable ensembles) and package it for the statistical tests.  A
   served run draws from the breakpoint's recorded outcome CDF, or restores
   its token where none was recorded.

The two execution modes differ only in how often the walk runs:

* ``"sample"`` (default): walk the plan **once** on a persistent engine,
  snapshot at each breakpoint, draw the whole ensemble from the snapshot,
  restore, and keep walking.  Breakpoint prefixes are measurement-free, so
  sampling the final distribution is statistically identical to re-running
  the program, and a k-assertion program costs O(total_gates) gate
  applications instead of the O(total_gates x k) of per-prefix re-simulation.
* ``"rerun"``: for every breakpoint and every ensemble member, walk the
  breakpoint's prefix on a fresh engine and perform one collapsing
  measurement, exactly as hardware would.

Gate applications are accounted in :attr:`BreakpointExecutor.gates_applied`
via the backend's instrumented counter, so tests and benchmarks can verify
the work bound directly.

``backend="auto"`` adds hybrid Clifford-prefix routing on top of the
registry spellings: the executor reads the plan's Clifford metadata and runs
all-Clifford walks on the stabilizer tableau outright, while mixed walks run
on :class:`~repro.sim.stabilizer_backend.HybridCliffordBackend`, which
simulates the maximal Clifford prefix on a tableau and converts to a dense
statevector exactly once, at the first non-Clifford gate.

Gate noise routes through the trajectory engine.  A ``noise`` model whose
gate channels are all **Pauli** mixtures is unravelled into Monte-Carlo
trajectories: in ``"sample"`` mode the executor builds one batched backend
carrying ``ensemble_size`` trajectory members (stacked statevectors on the
dense backends, Pauli frames on the tableau) and walks the plan **once**, so
a whole noisy ensemble costs one walk instead of ``ensemble_size`` density
contractions of ``4^n`` work; non-Pauli channels (amplitude damping) fall
back to the exact density-matrix backend.  Per-trajectory rng streams are
spawned via ``np.random.SeedSequence.spawn`` from the executor's seed — never
shared — so seeded runs stay reproducible under any batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..lang.instructions import (
    AssertionInstruction,
    AssertObservableInstruction,
    ClassicalAssertInstruction,
    EntangledAssertInstruction,
    ProductAssertInstruction,
    SuperpositionAssertInstruction,
)
from ..lang.program import Program, run_instructions
from ..observables.grouping import MeasurementSetting, group_terms
from ..sim import gates as _gates
from ..sim import kernels as _kernels
from ..sim.backend import SimulationBackend
from ..sim.measurement import MeasurementEnsemble, ReadoutErrorModel
from ..sim.memory import dense_qubit_budget
from ..sim.registry import (
    backend_capabilities,
    make_backend,
    make_noisy_backend,
    resolve_backend_name,
)
from ..sim.trajectory_backend import spawn_trajectory_streams
from .plan_cache import PlanCache, SnapshotSet, default_plan_cache
from .splitter import ExecutionPlan, PlanSegment

__all__ = [
    "BreakpointMeasurements",
    "ObservableMeasurements",
    "BreakpointExecutor",
]


@dataclass
class BreakpointMeasurements:
    """Ensembles collected at one breakpoint, pre-sliced per assertion operand."""

    #: The breakpoint's plan segment (index, name, assertion, gates_before).
    breakpoint: PlanSegment
    #: Joint ensemble over every qubit the assertion mentions (order = assertion.qubits()).
    joint: MeasurementEnsemble
    #: Ensemble of the first operand group (classical/superposition: the whole register).
    group_a: MeasurementEnsemble
    #: Ensemble of the second operand group (entangled/product assertions only).
    group_b: MeasurementEnsemble | None


@dataclass
class ObservableMeasurements:
    """Per-setting ensembles collected at one ``assert_observable`` breakpoint.

    One entry of ``ensembles`` per entry of ``settings``: the ensemble of
    basis-rotated measurements of the setting's support qubits, or ``None``
    for empty-support (identity-only) settings, which contribute their
    coefficients exactly and cost no shots.  When the breakpoint state lived
    on a stabilizer tableau the executor instead evaluates the observable
    exactly (see :mod:`repro.observables.exact`): ``exact`` carries the
    zero-shot :class:`~repro.observables.estimation.ObservableEstimate` and
    ``ensembles`` stays empty.
    """

    breakpoint: PlanSegment
    settings: "tuple[MeasurementSetting, ...]"
    ensembles: "list[MeasurementEnsemble | None]"
    exact: "object | None" = None


class BreakpointExecutor:
    """Runs execution plans and produces per-breakpoint measurement ensembles."""

    def __init__(self, config=None, *, rng: np.random.Generator | None = None):
        """``config`` is a :class:`repro.RunConfig` (or mapping, or ``None``).

        ``rng`` optionally supplies a live generator (the checker/Session
        share one stream across runs); otherwise the executor seeds its own
        from ``config.seed``.
        """
        from ..core.config import RunConfig  # runtime import: core imports us

        config = RunConfig.coerce(config, caller="BreakpointExecutor")
        if rng is None:
            rng = np.random.default_rng(config.seed)
        elif not isinstance(rng, np.random.Generator):
            raise TypeError(
                "rng must be a live numpy.random.Generator or None; got "
                f"{type(rng).__name__} (seed a run with RunConfig(seed=...))"
            )
        self.config = config
        self.ensemble_size = config.ensemble_size
        self.rng = rng
        self.mode = config.mode
        self.noise = config.noise
        if config.readout_error is not None:
            self.readout_error = config.readout_error
        elif self.noise is not None and not self.noise.readout.is_ideal:
            # A noise model bundles its readout channel; adopt it unless the
            # caller supplied an explicit (overriding) one.
            self.readout_error = self.noise.readout
        else:
            self.readout_error = ReadoutErrorModel()
        self.backend = config.backend
        #: Process-global plan/snapshot cache (see :mod:`.plan_cache`); every
        #: executor shares it, so sweep points compile each program once.
        self.plan_cache: PlanCache = default_plan_cache()
        #: Root entropy of the per-trajectory rng streams; spawned lazily from
        #: the executor's own stream so seeded executors stay reproducible.
        self._noise_seed_root: np.random.SeedSequence | None = None
        #: Cumulative gate applications of plan walks across every run (cost
        #: accounting).  The basis rotations of observable readout are part
        #: of measuring, like sampling, and are not counted.
        self.gates_applied = 0
        #: Subset of :attr:`gates_applied` that ran on a dense statevector
        #: representation (0 for tableau walks; what hybrid routing saves).
        self.statevector_gates_applied = 0
        #: Gate applications this executor *skipped* because a run was served
        #: from cached breakpoint snapshots instead of re-walking the plan.
        self.shared_prefix_gates_saved = 0
        #: Memory-aware routing decision of the most recent backend build
        #: (:meth:`_engine_for` copies it onto the plan's ``routing_note``).
        self._routing_note: str | None = None

    def plan_for(self, program: Program) -> ExecutionPlan:
        """The execution plan for ``program``, via the shared plan cache.

        Repeated calls with equivalent programs (same fingerprint — stable
        across gate spellings and a QASM round trip) return the one cached
        plan, so neither :func:`build_execution_plan` nor the Clifford
        classification pass runs more than once per unique program.
        """
        return self.plan_cache.plan_for(program)

    def run_plan(
        self,
        plan: ExecutionPlan,
        skip_indices: "frozenset[int] | set[int]" = frozenset(),
    ) -> list[BreakpointMeasurements]:
        """Collect measurement ensembles for every breakpoint of a plan.

        In ``"sample"`` mode the plan is walked once: each segment's delta
        instructions run on a persistent backend, the state is checkpointed
        at the breakpoint, the ensemble is drawn from the checkpoint and the
        state restored, so sampling at breakpoint *i* can never perturb
        breakpoint *i + 1*.  ``"rerun"`` mode loops over the same steps:
        every ensemble member of every breakpoint gets a fresh engine that
        walks the breakpoint's whole prefix.

        Cache-stamped plans (built via :meth:`plan_for`) whose walk is
        noiseless and rng-free additionally share breakpoint snapshots
        across runs: the first run on a backend family records one snapshot
        token and one outcome CDF per breakpoint, and later runs draw from
        those instead of running the deltas (see :meth:`_serve`) — the same
        rng draws and verdicts with zero gate applications.

        ``skip_indices`` names breakpoints the caller has already decided
        (the checker's static pre-flight): their segments are still walked
        so later breakpoints see the right state, but no snapshot is taken
        and no ensemble is drawn, and they are absent from the result list.
        A partially-skipped run consumes different rng draws than a full
        one, so it neither serves from nor records shared snapshots.
        """
        if self.mode == "rerun":
            return [
                self._measure(plan, segment, self._rerun_engines(plan, segment))
                for segment in plan.segments
                if segment.index not in skip_indices
            ]
        backend_key = self._snapshot_backend_key(plan) if not skip_indices else None
        served = recorder = None
        if backend_key is not None:
            served = self.plan_cache.snapshots_for(plan, backend_key)
        if served is not None:
            self.shared_prefix_gates_saved += served.walk_gates
            return [self._serve(plan, segment, served) for segment in plan.segments]
        engine = self._engine_for(plan, plan.is_clifford)
        if backend_key is not None:
            recorder = SnapshotSet(backend_name=backend_key, engine=engine)
        walked = (self.gates_applied, self.statevector_gates_applied)
        results: list[BreakpointMeasurements] = []
        for segment in plan.segments:
            self._advance(plan, engine, (segment,))
            if segment.index in skip_indices:
                continue
            if _is_observable(segment):
                results.append(self._measure(plan, segment, (engine,)))
                continue
            # Snapshot/restore brackets the readout so the walk stays
            # intact even on backends whose sampling is destructive.
            token = engine.snapshot()
            if recorder is not None:
                cdf = engine.marginal_cdf(_operand_indices(plan, segment))
                if cdf is not None:
                    cdf.flags.writeable = False
                recorder.tokens.append(token)
                recorder.cdfs.append(cdf)
            results.append(self._measure(plan, segment, (engine,)))
            engine.restore(token)
        if recorder is not None:
            recorder.walk_gates = self.gates_applied - walked[0]
            recorder.walk_statevector_gates = self.statevector_gates_applied - walked[1]
            self.plan_cache.record_snapshots(plan, recorder)
        return results

    def _serve(
        self, plan: ExecutionPlan, segment: PlanSegment, served: SnapshotSet
    ) -> BreakpointMeasurements:
        """Measure one breakpoint of a run served from recorded snapshots.

        With a recorded CDF and no readout channel to install natively the
        ensemble is drawn straight from the CDF: the shared engine is never
        touched.  Otherwise the breakpoint's token is restored into the
        shared engine and read as in a cold walk, under the set's lock so
        concurrent served runs never read each other's state.
        """
        cdf = served.cdfs[segment.index]
        if cdf is not None and not self._native_readout(served.engine):
            indices = _operand_indices(plan, segment)
            samples = _kernels.draw_from_cdf(cdf, self.rng, self.ensemble_size)
            return self._package(segment, indices, samples)
        with served.lock:
            served.engine.restore(served.tokens[segment.index])
            return self._measure(plan, segment, (served.engine,))

    def _snapshot_backend_key(self, plan: ExecutionPlan) -> str | None:
        """Resolved backend-family name under which this run's breakpoint
        snapshots may be shared, or ``None`` when sharing is unsound.

        Sharing needs (a) a cache-stamped plan whose walk never consumes an
        rng draw (so a snapshot-served run is stream-identical to a cold
        one), (b) a noiseless walk — gate-noise trajectories differ per
        point by construction — and (c) a registry-named backend; instances
        and factories are caller-owned state the cache must not capture.
        """
        if not self.plan_cache.shareable(plan):
            return None
        if self.noise is not None and self.noise.gate_channels:
            return None
        # Observable breakpoints replay rotated per-setting draws, not one
        # plain ensemble per token — the recorded snapshot protocol cannot
        # reproduce them, so such plans opt out of snapshot sharing.
        if any(_is_observable(segment) for segment in plan.segments):
            return None
        spec = self.backend
        if spec is not None and not isinstance(spec, str):
            return None
        return resolve_backend_name(spec, clifford=plan.is_clifford)

    def _advance(
        self,
        plan: ExecutionPlan,
        engine: SimulationBackend,
        segments: Sequence[PlanSegment],
    ) -> None:
        """Run ``segments``' deltas on ``engine`` and count their gates."""
        gates, dense = engine.gates_applied, engine.statevector_gates_applied
        for segment in segments:
            run_instructions(plan.program, segment.instructions, engine, rng=self.rng)
        self.gates_applied += engine.gates_applied - gates
        self.statevector_gates_applied += engine.statevector_gates_applied - dense

    def _rerun_engines(
        self, plan: ExecutionPlan, segment: PlanSegment
    ) -> Iterator[SimulationBackend]:
        """Fresh engines holding ``segment``'s breakpoint state (rerun mode).

        One engine per ensemble member, each re-simulating the whole prefix
        from ``|0...0>``; an observable breakpoint gets one, since its
        per-setting shots are drawn from the (measurement-free) prefix
        state.  Engines are built lazily, so each member's construction,
        walk and measurement draw from the rng in that order.
        """
        prefix = plan.segments[: segment.index + 1]
        clifford = all(earlier.is_clifford for earlier in prefix)
        members = 1 if _is_observable(segment) else self.ensemble_size
        for _ in range(members):
            engine = self._engine_for(plan, clifford)
            self._advance(plan, engine, prefix)
            yield engine

    def _measure(
        self,
        plan: ExecutionPlan,
        segment: PlanSegment,
        engines: Iterable[SimulationBackend],
    ) -> "BreakpointMeasurements | ObservableMeasurements":
        """Measure one breakpoint and package its ensemble.

        ``engines`` hold the breakpoint state: the one walk engine in
        ``"sample"`` mode (the whole ensemble is drawn from it), or one
        engine per ensemble member in ``"rerun"`` mode, each read by a
        collapsing measurement.  Those member engines never get the readout
        model installed natively: backends keep ``measure`` ideal
        (mid-circuit resets must match across backends), so
        :meth:`_package` applies the classical corruption — exactly the
        statevector semantics.
        """
        program = plan.program
        indices = _operand_indices(plan, segment)
        if self.mode == "rerun" and not _is_observable(segment):
            native = False
            samples: list[int] = []
            members: "list[list[float] | None]" = []
            for engine in engines:
                samples.append(int(engine.measure(indices, rng=self.rng)))
                members.append(self._member_weights(engine, 1))
            weights = None
            if any(member is not None for member in members):
                weights = [1.0 if m is None else m[0] for m in members]
        else:
            (engine,) = engines
            native, displaced = self._install_readout(engine)
            try:
                if _is_observable(segment):
                    return self._measure_observable(
                        segment, program, engine, native_readout=native
                    )
                samples = engine.sample(indices, shots=self.ensemble_size, rng=self.rng)
            finally:
                if native:
                    engine.set_readout_error(displaced)
            weights = self._member_weights(engine, len(samples))
        return self._package(segment, indices, samples, native, weights)

    def _package(
        self,
        segment: PlanSegment,
        indices: list[int],
        samples: Sequence[int],
        native_readout: bool = False,
        weights: "Sequence[float] | None" = None,
    ) -> BreakpointMeasurements:
        # With native_readout the samples were already drawn from the exact
        # noisy distribution inside the backend — never corrupt them twice.
        if not self.readout_error.is_ideal and not native_readout:
            samples = self.readout_error.corrupt(samples, len(indices), rng=self.rng)
        # MeasurementEnsemble copies and int-coerces the samples itself.
        joint = MeasurementEnsemble(
            num_bits=len(indices),
            samples=samples,
            label=segment.name,
            weights=None if weights is None else list(weights),
        )
        group_a, group_b = self._slice_groups(segment.assertion, joint)
        return BreakpointMeasurements(
            breakpoint=segment, joint=joint, group_a=group_a, group_b=group_b
        )

    def _measure_observable(
        self,
        segment: PlanSegment,
        program: Program,
        engine: SimulationBackend,
        native_readout: bool = False,
    ) -> ObservableMeasurements:
        """Collect per-setting rotated ensembles for one observable breakpoint.

        When the breakpoint state lives on a stabilizer tableau (pure
        ``"stabilizer"`` runs, or ``"auto"`` plans still in their Clifford
        prefix) and readout is ideal, the observable is evaluated **exactly**
        — anticommuting Paulis contribute 0, stabilized ones ±1 by phase —
        at zero sampling shots.  Otherwise each qubit-wise-commuting setting
        appends its basis rotations (X → H, Y → S†H) to the snapshotted
        breakpoint state and samples its support qubits; the walk state is
        restored afterwards, so later breakpoints are unperturbed.
        """
        from ..observables.estimation import rotation_ops
        from ..observables.exact import exact_estimate, tableau_engine

        assertion = segment.assertion
        observable = assertion.observable
        settings = tuple(
            group_terms(observable, grouped=self.config.group_observables)
        )
        if self.readout_error.is_ideal and tableau_engine(engine) is not None:
            return ObservableMeasurements(
                breakpoint=segment,
                settings=settings,
                ensembles=[],
                exact=exact_estimate(engine, observable),
            )
        shots = self.config.observable_shots_per_setting
        token = engine.snapshot()
        ensembles: "list[MeasurementEnsemble | None]" = []
        try:
            for setting in settings:
                support = setting.support()
                if not support:
                    # Identity-only setting: coefficients are constants, no
                    # shots are spent (estimation adds them in exactly).
                    ensembles.append(None)
                    continue
                engine.restore(token)
                for name, qubit in rotation_ops(setting):
                    engine.apply_matrix(
                        _gates.FIXED_GATES[name],
                        [program.qubit_index(assertion.targets[qubit])],
                    )
                indices = [
                    program.qubit_index(assertion.targets[q]) for q in support
                ]
                samples = engine.sample(indices, shots=shots, rng=self.rng)
                weights = self._member_weights(engine, len(samples))
                if not self.readout_error.is_ideal and not native_readout:
                    samples = self.readout_error.corrupt(
                        samples, len(indices), rng=self.rng
                    )
                ensembles.append(
                    MeasurementEnsemble(
                        num_bits=len(indices),
                        samples=samples,
                        label=f"{segment.name}:{setting.describe()}",
                        weights=weights,
                    )
                )
        finally:
            engine.restore(token)
        return ObservableMeasurements(
            breakpoint=segment,
            settings=settings,
            ensembles=ensembles,
            exact=None,
        )

    @staticmethod
    def _member_weights(
        engine: SimulationBackend, sample_count: int
    ) -> "list[float] | None":
        """The engine's per-member importance weights, when they apply.

        Only meaningful when the ensemble was drawn one-sample-per-member
        (the batched trajectory readout); averaged-mixture draws of any
        other shot count have no per-sample weight attribution.
        """
        getter = getattr(engine, "member_weights", None)
        if getter is None:
            return None
        weights = getter()
        if weights is None or len(weights) != sample_count:
            return None
        return [float(w) for w in weights]

    def _engine_for(self, plan: ExecutionPlan, clifford: bool) -> SimulationBackend:
        """A fresh engine for ``plan``, recording any routing decision on it."""
        engine = self._new_backend(plan.program.num_qubits, clifford=clifford)
        if self._routing_note:
            plan.routing_note = self._routing_note
        return engine

    def _new_backend(
        self, num_qubits: int, clifford: bool | None = None
    ) -> SimulationBackend:
        """Instantiate the configured backend, resolving ``"auto"`` routing.

        With ``backend="auto"`` the executor consults the plan's
        Clifford-prefix metadata: an all-Clifford plan runs on the pure
        stabilizer tableau (never building a statevector at all, which is
        what admits 20–50+ qubit workloads), anything else on the hybrid
        backend, which walks the maximal Clifford prefix on a tableau and
        converts to a dense statevector once, at the first non-Clifford
        gate.  ``clifford=None`` (no plan in sight) defers entirely to the
        hybrid backend's own gate-by-gate detection.

        Gate noise overrides the registry: a Pauli model is unravelled into
        trajectories (batched statevectors, or tableau Pauli frames on the
        stabilizer spellings); anything else falls back to the exact
        density-matrix backend (see :meth:`_new_noisy_backend`).

        Before any dense backend is instantiated the request is checked
        against the host's dense-qubit budget (see
        :func:`repro.sim.memory.dense_qubit_budget`): over-budget dense
        widths raise an actionable error instead of attempting a ``2**n``
        allocation, while over-budget Clifford ``"auto"`` plans simply run
        on the tableau (the routing is recorded in
        ``ExecutionPlan.routing_note``).
        """
        self._routing_note = None
        if self.noise is not None and self.noise.gate_channels:
            spec = self.backend
            if spec is None or isinstance(spec, str):
                self._enforce_dense_budget(
                    resolve_backend_name(spec, clifford=clifford),
                    num_qubits,
                )
            engine = self._new_noisy_backend(clifford)
        else:
            spec = self.backend
            if spec is None or isinstance(spec, str):
                resolved = resolve_backend_name(spec, clifford=clifford)
                self._enforce_dense_budget(resolved, num_qubits)
                spec = resolved
            engine = make_backend(spec)
        engine.initialize(num_qubits)
        return engine

    def _enforce_dense_budget(self, resolved: str, num_qubits: int) -> None:
        """Refuse over-budget dense allocations before they happen.

        ``resolved`` is the post-``"auto"``-routing registry name; dense
        requests wider than the host budget raise here — never inside a
        ``2**n`` allocation — and non-dense routings of over-budget widths
        record the decision for ``ExecutionPlan.describe()``.
        """
        budget = dense_qubit_budget(self.config.max_dense_qubits)
        if num_qubits <= budget:
            return
        if not backend_capabilities(resolved).dense:
            self._routing_note = (
                f"{num_qubits} qubits exceed the {budget}-qubit dense "
                f"budget; running on {resolved!r} (no dense allocation)"
            )
            return
        raise ValueError(
            f"backend {resolved!r} would allocate a dense {num_qubits}-qubit "
            f"state, beyond this host's {budget}-qubit budget "
            f"(2**{num_qubits} amplitudes). For Clifford circuits use "
            "backend='auto' or backend='stabilizer' (no dense state at any "
            "width); to raise the budget set RunConfig.max_dense_qubits or "
            "the REPRO_MAX_DENSE_QUBITS environment variable."
        )

    def _trajectory_streams(self, count: int) -> list[np.random.Generator]:
        """Per-trajectory rng streams via ``SeedSequence.spawn``.

        The root sequence is seeded from one draw of the executor's own
        stream, so a seeded executor reproduces the same trajectory record
        run after run, while every backend construction (each checking run,
        each rerun member) spawns fresh, statistically independent children
        — never a shared ``Generator``, whose interleaved draw order would
        couple the members under re-batching.
        """
        if self._noise_seed_root is None:
            entropy = int(self.rng.integers(0, np.iinfo(np.int64).max))
            self._noise_seed_root = np.random.SeedSequence(entropy)
        return spawn_trajectory_streams(self._noise_seed_root, count)

    def _new_noisy_backend(self, clifford: bool | None) -> SimulationBackend:
        """Build the gate-noise engine via the declarative registry routing.

        The capability flags and delegates registered in
        :mod:`repro.sim.registry` reproduce the historical rules:
        Pauli-mixture models run as trajectories — batched statevectors for
        the dense spellings, Pauli frames on the tableau for
        ``"stabilizer"``, and the frame-carrying hybrid for mixed ``"auto"``
        plans — while non-Pauli models fall back to the exact density
        backend where the spelling permits and raise where it does not
        (``"trajectory"``/``"stabilizer"`` are explicitly Pauli-only).
        """
        spec = self.backend
        if spec is not None and not isinstance(spec, str):
            raise ValueError(
                "executor-level gate noise needs a registry backend name; "
                "backend instances/factories own their noise configuration "
                "(e.g. DensityMatrixBackend(noise=...))"
            )
        batch = self.ensemble_size if self.mode == "sample" else 1
        # The executor's resolved readout model (explicit override, or the
        # noise model's bundled channel) is installed explicitly: backends
        # must not fall back to the noise model's own readout, or an
        # explicit ideal `readout_error=` override would be ignored.  The
        # stream provider is lazy so a density fallback never burns a draw
        # of the executor's stream on trajectory streams it will not use.
        return make_noisy_backend(
            spec,
            self.noise,
            batch_size=batch,
            rng_streams=lambda: self._trajectory_streams(batch),
            readout_error=self.readout_error,
            clifford=clifford,
        )

    def _install_readout(
        self, engine: SimulationBackend
    ) -> tuple[bool, ReadoutErrorModel | None]:
        """Lift the executor's readout channel into a capable backend.

        One density walk then yields the exact noisy distribution at every
        breakpoint, replacing per-member corrupted re-sampling.  Returns
        ``(native, displaced)``: ``native`` says whether the backend now owns
        the channel (so :meth:`_package` must not corrupt a second time) and
        ``displaced`` is the backend's own model, which the caller puts back —
        a caller-owned instance must not keep this executor's noise after
        the run.
        """
        if self._native_readout(engine):
            displaced = getattr(engine, "readout_error", None)
            engine.set_readout_error(self.readout_error)
            return True, displaced
        return False, None

    def _native_readout(self, engine: SimulationBackend) -> bool:
        """True when ``engine`` takes this executor's readout channel natively."""
        return engine.supports_readout_noise and not self.readout_error.is_ideal

    # ------------------------------------------------------------------

    @staticmethod
    def _slice_groups(
        assertion: AssertionInstruction, joint: MeasurementEnsemble
    ) -> tuple[MeasurementEnsemble, MeasurementEnsemble | None]:
        if isinstance(assertion, (ClassicalAssertInstruction, SuperpositionAssertInstruction)):
            return joint, None
        if isinstance(assertion, (EntangledAssertInstruction, ProductAssertInstruction)):
            width_a = len(assertion.group_a)
            width_b = len(assertion.group_b)
            group_a = joint.extract_bits(list(range(width_a)), label="group_a")
            group_b = joint.extract_bits(
                list(range(width_a, width_a + width_b)), label="group_b"
            )
            return group_a, group_b
        raise TypeError(f"unknown assertion type {type(assertion)!r}")


def _is_observable(segment: PlanSegment) -> bool:
    return isinstance(segment.assertion, AssertObservableInstruction)


def _operand_indices(plan: ExecutionPlan, segment: PlanSegment) -> list[int]:
    """Register indices of every qubit the segment's assertion reads."""
    return [plan.program.qubit_index(q) for q in segment.assertion.qubits()]
