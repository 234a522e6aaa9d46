"""The end-to-end assertion checker.

``StatisticalAssertionChecker`` wires together the three stages described in
Section 3.3 of the paper:

1. the compiler turns the program into a shared-prefix execution plan with
   one segment per assertion (:mod:`repro.compiler.splitter`);
2. the simulator runs an ensemble of executions for each breakpoint of the
   plan (:mod:`repro.compiler.executor`);
3. the measurement results feed into chi-square statistical tests that decide
   whether each assertion held (:mod:`repro.core.assertions`).

The result is a :class:`repro.core.report.DebugReport`; optionally the checker
raises :class:`repro.core.exceptions.AssertionViolation` at the first failing
breakpoint, which is how the example programs emulate the interactive
debugging workflow of the paper.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Mapping
import numpy as np

from ..compiler.executor import (
    BreakpointExecutor,
    BreakpointMeasurements,
    ObservableMeasurements,
)
from ..compiler.splitter import ExecutionPlan
from ..lang.instructions import (
    AssertionInstruction,
    AssertObservableInstruction,
    ClassicalAssertInstruction,
    EntangledAssertInstruction,
    ProductAssertInstruction,
    SuperpositionAssertInstruction,
)
from ..lang.program import Program
from ..observables.estimation import ObservableEstimate, estimate_observable
from .assertions import (
    AssertionOutcome,
    ClassicalAssertion,
    EntanglementAssertion,
    ObservableAssertion,
    ProductStateAssertion,
    SuperpositionAssertion,
)
from .config import RunConfig
from .exceptions import AssertionViolation
from .report import BreakpointRecord, DebugReport
from .statistics import (
    ConvergenceResult,
    ensemble_convergence,
    max_category_standard_error,
)

__all__ = ["StatisticalAssertionChecker", "check_program", "build_evaluator"]


def build_evaluator(assertion: AssertionInstruction, significance: float):
    """Map an assertion *instruction* (IR) to its statistical evaluator."""
    if not isinstance(assertion, AssertionInstruction):
        raise TypeError(f"expected an assertion instruction, got {type(assertion)!r}")
    label = assertion.label or assertion.describe()
    if isinstance(assertion, ClassicalAssertInstruction):
        return ClassicalAssertion(
            expected_value=assertion.value,
            num_bits=len(assertion.measured),
            label=label,
            significance=significance,
        )
    if isinstance(assertion, SuperpositionAssertInstruction):
        return SuperpositionAssertion(
            num_bits=len(assertion.measured),
            support=assertion.values,
            label=label,
            significance=significance,
        )
    if isinstance(assertion, EntangledAssertInstruction):
        return EntanglementAssertion(label=label, significance=significance)
    if isinstance(assertion, ProductAssertInstruction):
        return ProductStateAssertion(label=label, significance=significance)
    if isinstance(assertion, AssertObservableInstruction):
        return ObservableAssertion(
            expected=assertion.expectation,
            tolerance=assertion.tolerance,
            label=label,
            significance=significance,
        )
    raise TypeError(f"unknown assertion instruction {type(assertion)!r}")


class StatisticalAssertionChecker:
    """Checks every statistical assertion in a program via simulation.

    The run is configured by one :class:`repro.RunConfig`::

        checker = StatisticalAssertionChecker(program, RunConfig(seed=7))

    ``rng`` optionally supplies a live ``numpy.random.Generator`` to draw
    from instead of seeding a fresh stream from ``config.seed`` — that is
    how :class:`repro.Session` advances one stream across many runs.

    ``config.backend`` accepts every registry spelling (``"statevector"``,
    ``"density"``, ``"stabilizer"``, an instance, a factory) and threads it
    through to the executor unchanged.  ``backend="auto"`` selects hybrid
    Clifford-prefix routing: Clifford-only programs are checked entirely on
    the stabilizer tableau (reaching 20–50+ qubit workloads no statevector
    can hold), and mixed programs run their maximal Clifford prefix on the
    tableau before a single tableau→statevector conversion.
    """

    def __init__(
        self,
        program: Program,
        config: "RunConfig | Mapping | None" = None,
        *,
        rng: np.random.Generator | None = None,
    ):
        config = RunConfig.coerce(config, caller="StatisticalAssertionChecker")
        self.program = program
        self.config = config
        self.ensemble_size = config.ensemble_size
        self.significance = config.significance
        self.executor = BreakpointExecutor(config, rng=rng)
        self.rng = self.executor.rng
        #: Per-breakpoint convergence rows of the last
        #: :meth:`run_until_converged` call (empty otherwise).
        self.convergence: list[dict] = []

    # ------------------------------------------------------------------

    def execution_plan(self) -> ExecutionPlan:
        """The shared-prefix plan the incremental executor walks.

        Served through the executor's :class:`~repro.compiler.plan_cache.PlanCache`,
        so repeated checks of the same program (sweep points, convergence
        batches, detection trials) compile and Clifford-classify it once.
        """
        return self.executor.plan_for(self.program)

    # ------------------------------------------------------------------
    # Static analysis (stabilizer abstract interpretation)
    # ------------------------------------------------------------------

    def analyze(self):
        """Static verdicts + lint diagnostics for the program.

        Returns a :class:`repro.analysis.AnalysisResult`; served through the
        executor's plan cache when possible, so one analysis covers every
        noise-free run of the same program.
        """
        plan = self.execution_plan()
        cache = getattr(self.executor, "plan_cache", None)
        if cache is not None and plan.fingerprint is not None:
            return cache.analysis_for(plan, max_support=self.config.max_support)
        from ..analysis import analyze_plan

        return analyze_plan(plan, max_support=self.config.max_support)

    def _static_preflight(self, plan: ExecutionPlan):
        """(decided verdicts by breakpoint index, analysis) for this run.

        Empty when the pre-flight is off or unsound for the config: static
        verdicts describe the *ideal* state, so any gate-noise channel or
        readout error reverts every breakpoint to sampling.
        """
        if not self.config.static_preflight or not plan.segments:
            return {}, None
        noise = self.executor.noise
        if noise is not None and noise.gate_channels:
            return {}, None
        if not self.executor.readout_error.is_ideal:
            return {}, None
        analysis = self.analyze()
        decided = {
            verdict.index: verdict
            for verdict in analysis.verdicts
            if verdict.decided
        }
        return decided, analysis

    def _static_record(self, segment, verdict) -> BreakpointRecord:
        """Synthesise the record a sampled run would have produced.

        The p-value encodes the decided limit of the statistical test:
        entanglement passes by *rejecting* independence (small p), the other
        three pass by failing to reject (large p).
        """
        passed = verdict.verdict == "proven"
        if verdict.assertion_type == "entangled":
            p_value = 0.0 if passed else 1.0
        else:
            p_value = 1.0 if passed else 0.0
        assertion = segment.assertion
        outcome = AssertionOutcome(
            assertion_type=verdict.assertion_type,
            label=assertion.label or assertion.describe(),
            passed=passed,
            p_value=p_value,
            statistic=0.0,
            dof=0,
            num_samples=0,
            significance=self.significance,
            message=f"statically {verdict.verdict}: {verdict.reason}",
            details={"method": "static", "verdict": verdict.verdict},
        )
        return BreakpointRecord(
            index=segment.index,
            name=segment.name,
            gates_before=segment.gates_before,
            outcome=outcome,
            ensemble_size=0,
            method="static",
        )

    def try_static_report(self) -> "DebugReport | None":
        """The full statically decided report, or ``None``.

        Succeeds exactly when the static pre-flight applies
        (``config.static_preflight`` on a noise-free, ideal-readout run that
        does not ``converge``) and the abstract interpreter decides *every*
        breakpoint — the case where a checking run costs one cached analysis
        and no simulation at all, and :func:`check_program` would return the
        same report.  :mod:`repro.service` uses this to answer decidable
        jobs inline even when its worker pool is saturated or down.
        """
        if self.config.converge:
            return None
        plan = self.execution_plan()
        decided, analysis = self._static_preflight(plan)
        if not decided or len(decided) != plan.num_breakpoints:
            return None
        return self._static_report(plan, decided, analysis)

    def _new_report(self, analysis) -> DebugReport:
        """An empty report carrying the pre-flight's lint diagnostics."""
        report = DebugReport(
            program_name=self.program.name,
            ensemble_size=self.ensemble_size,
            significance=self.significance,
        )
        if analysis is not None:
            report.diagnostics = [d.to_dict() for d in analysis.diagnostics]
        return report

    def _static_report(self, plan, decided, analysis) -> DebugReport:
        """The report of a run whose every breakpoint decided statically."""
        report = self._new_report(analysis)
        for segment in plan.segments:
            report.add(self._static_record(segment, decided[segment.index]))
        self._record_static_savings(plan, decided, full=True)
        return report

    def _evaluate(self, measurements) -> AssertionOutcome:
        evaluator = build_evaluator(
            measurements.breakpoint.assertion, self.significance
        )
        if isinstance(measurements, ObservableMeasurements):
            return evaluator.evaluate(self._observable_estimate(measurements))
        if isinstance(evaluator, (ClassicalAssertion, SuperpositionAssertion)):
            return evaluator.evaluate(measurements.group_a)
        return evaluator.evaluate(measurements.group_a, measurements.group_b)

    @staticmethod
    def _observable_estimate(
        measurements: ObservableMeasurements,
    ) -> ObservableEstimate:
        """The breakpoint's observable estimate (exact, or aggregated)."""
        if measurements.exact is not None:
            return measurements.exact
        return estimate_observable(
            measurements.breakpoint.assertion.observable,
            measurements.settings,
            measurements.ensembles,
        )

    def _sampled_record(self, measurements) -> BreakpointRecord:
        """Build the report record for one executor measurement bundle."""
        segment = measurements.breakpoint
        outcome = self._evaluate(measurements)
        if isinstance(measurements, ObservableMeasurements):
            estimate = self._observable_estimate(measurements)
            return BreakpointRecord(
                index=segment.index,
                name=segment.name,
                gates_before=segment.gates_before,
                outcome=outcome,
                ensemble_size=int(round(estimate.total_shots)),
                method="observable",
            )
        return BreakpointRecord(
            index=segment.index,
            name=segment.name,
            gates_before=segment.gates_before,
            outcome=outcome,
            ensemble_size=measurements.joint.num_samples,
        )

    def run(self) -> DebugReport:
        """Check every assertion and return the full report.

        Ensembles come from one incremental walk of the execution plan (or
        per-member prefix re-simulation in ``"rerun"`` mode — the executor
        decides based on its mode).

        With ``config.static_preflight`` (noise-free, ideal readout only)
        the stabilizer abstract interpreter decides breakpoints first:
        decided ones land in the report with ``method="static"`` and zero
        samples, and when *every* breakpoint decides the executor is never
        invoked at all — the whole check costs one cached analysis.
        """
        plan = self.execution_plan()
        decided, analysis = self._static_preflight(plan)
        if decided and len(decided) == plan.num_breakpoints:
            # Full short-circuit: no walk, no snapshots, no samples.
            return self._static_report(plan, decided, analysis)
        report = self._new_report(analysis)
        if decided:
            self._record_static_savings(plan, decided, full=False)
        for measurements in self.executor.run_plan(
            plan, skip_indices=frozenset(decided)
        ):
            report.add(self._sampled_record(measurements))
        if decided:
            static_records = [
                self._static_record(segment, decided[segment.index])
                for segment in plan.segments
                if segment.index in decided
            ]
            report.records.extend(static_records)
            report.records.sort(key=lambda record: record.index)
        return report

    def _record_static_savings(self, plan, decided, *, full: bool) -> None:
        """Thread skipped work into the plan/cache counters.

        A full short-circuit skips the entire plan walk; a partial one
        still walks the plan for the sampled remainder.  A ``"rerun"``-mode
        skip saves the skipped breakpoints' prefix re-simulations: one per
        ensemble member, or one for an observable breakpoint.
        """
        if self.executor.mode == "rerun":
            gates_saved = sum(
                segment.gates_before
                * (
                    1
                    if isinstance(segment.assertion, AssertObservableInstruction)
                    else self.ensemble_size
                )
                for segment in plan.segments
                if segment.index in decided
            )
        else:
            gates_saved = plan.total_gates if full else 0
        plan.static_short_circuits += len(decided)
        plan.static_gates_saved += gates_saved
        cache = getattr(self.executor, "plan_cache", None)
        if cache is not None:
            cache.record_static_short_circuit(len(decided), gates_saved)

    def check(self) -> DebugReport:
        """Like :meth:`run` but raise :class:`AssertionViolation` on the first failure."""
        report = self.run()
        failure = report.first_failure()
        if failure is not None:
            raise AssertionViolation(failure.outcome)
        return report

    # ------------------------------------------------------------------
    # Trajectory-ensemble aggregation with a convergence criterion
    # ------------------------------------------------------------------

    @staticmethod
    def _merge_measurements(accumulated, fresh):
        if isinstance(accumulated, ObservableMeasurements):
            if accumulated.exact is not None:
                # Exact tableau evaluation: already converged, nothing to add.
                return accumulated
            return ObservableMeasurements(
                breakpoint=accumulated.breakpoint,
                settings=accumulated.settings,
                ensembles=[
                    old if old is None else old.extend(new)
                    for old, new in zip(accumulated.ensembles, fresh.ensembles)
                ],
                exact=None,
            )
        return BreakpointMeasurements(
            breakpoint=accumulated.breakpoint,
            joint=accumulated.joint.extend(fresh.joint),
            group_a=accumulated.group_a.extend(fresh.group_a),
            group_b=(
                accumulated.group_b.extend(fresh.group_b)
                if accumulated.group_b is not None
                else None
            ),
        )

    def run_until_converged(
        self,
        se_cutoff: float | None = None,
        max_batches: int | None = None,
        max_seconds: float | None = None,
    ) -> DebugReport:
        """Grow trajectory ensembles per breakpoint until they converge.

        One trajectory batch is a Monte-Carlo estimate of each breakpoint
        distribution; its per-category uncertainty shrinks as
        ``1/sqrt(N)``.  This method walks the plan repeatedly (each walk
        appends ``ensemble_size`` fresh members to every breakpoint's
        ensemble) until the worst category standard error of every
        breakpoint's joint empirical distribution drops to ``se_cutoff`` —
        the convergence criterion on the assertion statistic's input — or
        ``max_batches`` walks have run.  The assertions are evaluated once,
        on the merged ensembles; :attr:`convergence` records one row per
        breakpoint (samples, worst standard error, converged flag).

        The incremental walk makes each batch cost O(total_gates) gate
        applications regardless of the batch's ensemble width, so adaptive
        growth costs exactly ``batches`` walks.  ``se_cutoff`` and
        ``max_batches`` default to the checker's
        :class:`~repro.core.config.RunConfig` policy; the convergence rows
        are also attached to the returned report
        (:attr:`DebugReport.convergence`).

        ``max_seconds`` (default :attr:`RunConfig.max_seconds`) is a
        wall-clock guard: when a batch finishes past the bound the partial
        report is returned immediately, its convergence rows flagged
        ``converged=False, reason="timeout"`` — a never-converging assertion
        costs bounded time instead of ``max_batches`` full walks.  At least
        one batch always runs.
        """
        se_cutoff = self.config.se_cutoff if se_cutoff is None else se_cutoff
        max_batches = (
            self.config.max_batches if max_batches is None else max_batches
        )
        max_seconds = (
            self.config.max_seconds if max_seconds is None else max_seconds
        )
        if max_batches <= 0:
            raise ValueError("max_batches must be positive")
        if not 0.0 < se_cutoff < 1.0:
            raise ValueError(f"se_cutoff must be in (0, 1), got {se_cutoff}")
        if max_seconds is not None and max_seconds <= 0.0:
            raise ValueError(f"max_seconds must be positive, got {max_seconds}")
        plan = self.execution_plan()
        if not plan.segments:
            # No assertions: nothing to converge on (run() is empty too).
            self.convergence = []
            return DebugReport(
                program_name=self.program.name,
                ensemble_size=0,
                significance=self.significance,
            )
        merged: list[BreakpointMeasurements] | None = None
        batches = 0
        started = time.monotonic()
        timed_out = False
        while True:
            results = self.executor.run_plan(plan)
            batches += 1
            if merged is None:
                merged = results
            else:
                merged = [
                    self._merge_measurements(a, b) for a, b in zip(merged, results)
                ]
            # Weighted (importance-sampled) ensembles converge on their
            # weighted frequencies at the Kish effective sample size; for
            # unweighted ensembles both degrade to the plain spelling.
            # Observable breakpoints converge on their estimator's standard
            # error instead (0 on the exact tableau path).
            worst = max(self._worst_standard_error(m) for m in merged)
            if worst <= se_cutoff or batches >= max_batches:
                break
            if (
                max_seconds is not None
                and time.monotonic() - started >= max_seconds
            ):
                timed_out = True
                break

        def _reason(row) -> str:
            if row.converged:
                return "converged"
            return "timeout" if timed_out else "max_batches"

        rows = [(m, self._convergence_result(m, se_cutoff)) for m in merged]
        self.convergence = [
            {
                "breakpoint": m.breakpoint.index,
                "name": m.breakpoint.name,
                "batches": batches,
                "reason": _reason(row),
                **dataclasses.asdict(row),
            }
            for m, row in rows
        ]
        report = DebugReport(
            program_name=self.program.name,
            ensemble_size=rows[0][1].num_samples if rows else 0,
            significance=self.significance,
            convergence=[dict(row) for row in self.convergence],
        )
        for measurements in merged:
            report.add(self._sampled_record(measurements))
        return report

    def _worst_standard_error(self, measurements) -> float:
        """The convergence statistic of one breakpoint's measurement bundle."""
        if isinstance(measurements, ObservableMeasurements):
            estimate = self._observable_estimate(measurements)
            return 0.0 if estimate.exact else float(estimate.standard_error)
        return max_category_standard_error(
            measurements.joint.weighted_frequencies(),
            effective_sample_size=measurements.joint.effective_sample_size(),
        )

    def _convergence_result(self, measurements, se_cutoff: float) -> ConvergenceResult:
        if isinstance(measurements, ObservableMeasurements):
            estimate = self._observable_estimate(measurements)
            se = 0.0 if estimate.exact else float(estimate.standard_error)
            return ConvergenceResult(
                converged=se <= se_cutoff,
                max_standard_error=se,
                num_samples=int(round(estimate.total_shots)),
                cutoff=se_cutoff,
            )
        return ensemble_convergence(
            measurements.joint.weighted_frequencies(),
            cutoff=se_cutoff,
            effective_sample_size=measurements.joint.effective_sample_size(),
        )


def check_program(
    program: Program,
    config: "RunConfig | Mapping | None" = None,
    *,
    rng: np.random.Generator | None = None,
    converge: bool | None = None,
    se_cutoff: float | None = None,
    max_batches: int | None = None,
) -> DebugReport:
    """One-shot convenience wrapper around :class:`StatisticalAssertionChecker`.

    ``config`` is a :class:`repro.RunConfig` (or mapping, or ``None`` for
    defaults); ``rng`` optionally supplies a live generator to draw from.
    ``converge=True`` (or ``config.converge``) runs the adaptive
    :meth:`~StatisticalAssertionChecker.run_until_converged` path — growing
    each breakpoint's trajectory ensemble until its worst per-category
    standard error drops to ``se_cutoff`` — and attaches the per-breakpoint
    convergence rows to the returned report.
    """
    checker = StatisticalAssertionChecker(program, config, rng=rng)
    if converge is None:
        # Passing a convergence knob states convergence intent; silently
        # running fixed-size would drop the caller's cutoff on the floor.
        do_converge = (
            checker.config.converge or se_cutoff is not None or max_batches is not None
        )
    else:
        do_converge = converge
    if do_converge:
        return checker.run_until_converged(
            se_cutoff=se_cutoff, max_batches=max_batches
        )
    return checker.run()
