"""`Session`: the run-facade that owns configuration and the rng stream.

A :class:`Session` binds one validated :class:`~repro.core.config.RunConfig`
to one live rng stream and exposes every way the repo runs programs against
it::

    import repro

    session = repro.session(repro.RunConfig(ensemble_size=32, seed=7,
                                            backend="auto"))
    report = session.check(program)                  # one checking run
    report = session.run_until_converged(program)    # adaptive ensembles
    rate   = session.detection_rate(build_buggy, trials=20)
    rows   = session.sweep("ensemble_size", build_correct, build_buggy,
                           sizes=(8, 16, 32))

The session is where process state lives — backend construction, rng stream
spawning, and readout/noise installation happen exactly once per run via the
executor the session configures — while the config itself stays a frozen
JSON-serializable value.  Successive calls advance the *same* stream, so a
seeded session reproduces a whole experiment (many runs), exactly like the
old pattern of threading one ``numpy`` generator through every call.

This mirrors the related-repo PyQuil design: programs run against a
configured ``QuantumComputer`` object, not a loose pile of kwargs.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..lang.program import Program
from .checker import StatisticalAssertionChecker
from .config import RunConfig
from .exceptions import AssertionViolation
from .report import DebugReport

__all__ = ["Session", "session"]


class Session:
    """One configuration plus one rng stream; every run goes through it.

    Construct with a :class:`RunConfig` (or a mapping fed through
    :meth:`RunConfig.from_dict`, or nothing for defaults); keyword overrides
    are applied on top::

        Session(RunConfig(seed=7), ensemble_size=64)
    """

    def __init__(self, config: "RunConfig | Mapping | None" = None, **overrides):
        base = RunConfig.coerce(config, caller="Session")
        self._config = base.replace(**overrides) if overrides else base
        self._rng = np.random.default_rng(self._config.seed)

    # ------------------------------------------------------------------

    @property
    def config(self) -> RunConfig:
        return self._config

    @property
    def rng(self) -> np.random.Generator:
        """The session's live stream (advances with every run)."""
        return self._rng

    def replace(self, **overrides) -> "Session":
        """A fresh session with config overrides and a freshly seeded stream."""
        return Session(self._config.replace(**overrides))

    def _derive(self, **overrides) -> "Session":
        """A config-overridden session *sharing* this session's stream.

        Internal: the sweeps derive one session per sweep point while every
        point keeps drawing from the parent stream, which is what makes a
        seeded sweep a single reproducible experiment rather than N
        identical ones.
        """
        derived = Session.__new__(Session)
        derived._config = self._config.replace(**overrides) if overrides else self._config
        derived._rng = self._rng
        return derived

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------

    def checker(self, program: Program) -> StatisticalAssertionChecker:
        """A checker for ``program`` wired to this session's config and stream."""
        return StatisticalAssertionChecker(program, self._config, rng=self._rng)

    def check(
        self,
        program: Program,
        *,
        converge: bool | None = None,
        raise_on_failure: bool = False,
    ) -> DebugReport:
        """Check every assertion in ``program`` and return the report.

        ``converge`` overrides ``config.converge``; with it the run grows
        trajectory ensembles adaptively (one incremental plan walk per
        batch) and the report carries the per-breakpoint convergence rows.
        ``raise_on_failure`` raises :class:`AssertionViolation` at the first
        failed assertion, like ``StatisticalAssertionChecker.check()``.
        """
        checker = self.checker(program)
        do_converge = self._config.converge if converge is None else converge
        report = checker.run_until_converged() if do_converge else checker.run()
        if raise_on_failure:
            failure = report.first_failure()
            if failure is not None:
                raise AssertionViolation(failure.outcome)
        return report

    def run_until_converged(
        self,
        program: Program,
        se_cutoff: float | None = None,
        max_batches: int | None = None,
    ) -> DebugReport:
        """Adaptive-ensemble check of ``program`` (config supplies defaults)."""
        return self.checker(program).run_until_converged(
            se_cutoff=se_cutoff, max_batches=max_batches
        )

    def analyze(self, program: Program):
        """Static analysis of ``program``: assertion verdicts + lint findings.

        Walks the program once in the stabilizer abstract domain — no
        ensembles, no rng draws — and returns a
        :class:`repro.analysis.AnalysisResult` whose PROVEN/REFUTED verdicts
        are exactly the outcomes a noise-free sampled check would reach.
        Results are cached by program fingerprint in the plan cache, and
        ``RunConfig(static_preflight=True)`` lets :meth:`check` consume them
        to skip sampling entirely.
        """
        return self.checker(program).analyze()

    # ------------------------------------------------------------------
    # Repeated-run statistics
    # ------------------------------------------------------------------

    def detection_rate(self, build_buggy_program, trials: int = 20) -> float:
        """Fraction of ``trials`` checking runs on a buggy program that fail.

        ``build_buggy_program`` may be a :class:`Program` or a zero-argument
        builder; builders are re-invoked **per trial** so stochastic
        program constructions resample every run.
        """
        from ..workloads.ensembles import _repeat_checks

        return _repeat_checks(build_buggy_program, self, trials).failure_fraction

    def false_positive_rate(self, build_correct_program, trials: int = 20) -> float:
        """Fraction of ``trials`` checking runs on a correct program that fail."""
        from ..workloads.ensembles import _repeat_checks

        return _repeat_checks(
            build_correct_program, self, trials
        ).failure_fraction

    def sweep(self, kind: str, *args, **kwargs) -> list[dict]:
        """Run a named workload sweep against this session.

        ``kind`` selects the sweep: ``"ensemble_size"``, ``"significance"``,
        ``"readout_error"``, ``"gate_noise"``, ``"clifford_detection"``,
        ``"shor_gate_noise"``, or ``"clifford_gate_noise"``.  Positional and
        keyword arguments are the sweep's own parameters (program builders,
        ``sizes=``, ``error_rates=``, ``trials=`` …); the session supplies
        the configuration and the shared stream.
        """
        from ..workloads import clifford as _clifford
        from ..workloads import ensembles as _ensembles
        from ..workloads import noise as _noise

        table = {
            "ensemble_size": _ensembles.ensemble_size_sweep,
            "significance": _ensembles.significance_sweep,
            "readout_error": _ensembles.readout_error_sweep,
            "gate_noise": _ensembles.gate_noise_sweep,
            "clifford_detection": _clifford.clifford_detection_sweep,
            "shor_gate_noise": _noise.shor_gate_noise_sweep,
            "clifford_gate_noise": _noise.clifford_gate_noise_sweep,
        }
        try:
            sweep_fn = table[kind]
        except KeyError:
            raise ValueError(
                f"unknown sweep {kind!r}; available: {', '.join(sorted(table))}"
            ) from None
        return sweep_fn(*args, session=self, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session(config={self._config!r})"


def session(config: "RunConfig | Mapping | None" = None, **overrides) -> Session:
    """Create a :class:`Session` — the front door of the public API.

    ``repro.session(RunConfig(...))`` or ``repro.session(ensemble_size=32,
    seed=7)``; both spellings return a ready-to-use facade.
    """
    return Session(config, **overrides)
