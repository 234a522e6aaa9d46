"""Experiment harness: detection-rate sweeps and assertion-cost accounting.

The paper reports point results (specific p-values at an ensemble size of 16).
The natural follow-up questions — how reliably does each assertion catch its
bug as a function of ensemble size, and what does assertion checking cost in
simulated gates — are answered by the sweeps in this module, which back the
ablation benchmarks.

Every sweep runs through a :class:`repro.Session`: pass ``config=RunConfig(...)``
(or ``session=`` an existing session to share its rng stream — that is what
``Session.sweep`` does), and the sweep derives one config per sweep point
while all points draw from a single stream, keeping a seeded sweep one
reproducible experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..compiler.plan_cache import default_plan_cache
from ..core.config import RunConfig
from ..core.session import Session
from ..lang.program import Program
from ..sim.backend import SimulationBackend
from ..sim.measurement import ReadoutErrorModel
from ..sim.noise import KrausChannel, NoiseModel, depolarizing

__all__ = [
    "DetectionResult",
    "detection_rate",
    "false_positive_rate",
    "ensemble_size_sweep",
    "assertion_cost",
    "significance_sweep",
    "readout_error_sweep",
    "gate_noise_sweep",
]

#: Backend spec accepted everywhere a config takes ``backend``: a registry
#: name, an instance (shared state), or a zero-argument factory.
BackendSpec = "str | SimulationBackend | Callable[[], SimulationBackend] | None"


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of repeated assertion-checking runs on one program."""

    program_name: str
    ensemble_size: int
    trials: int
    num_failing_runs: int

    @property
    def failure_fraction(self) -> float:
        return self.num_failing_runs / self.trials if self.trials else 0.0

    @property
    def pass_fraction(self) -> float:
        return 1.0 - self.failure_fraction


def _session_for(
    caller: str,
    config: "RunConfig | None",
    session: "Session | None",
    default_backend: "BackendSpec" = None,
    sweep_defaults: dict | None = None,
) -> Session:
    """Resolve ``config``/``session`` into one run session.

    ``session`` wins and shares its live stream; ``config`` seeds a fresh
    one.  ``sweep_defaults`` are this sweep's own defaults (e.g. a wider
    ensemble), applied only when the caller supplied neither a config nor a
    session; a sweep's ``default_backend`` applies whenever the resolved
    backend is ``None``.
    """
    if session is not None:
        if config is not None:
            raise TypeError(f"{caller}: pass either config= or session=, not both")
        run = session
    else:
        base = RunConfig.coerce(config, caller=caller)
        if config is None and sweep_defaults:
            base = base.replace(**sweep_defaults)
        run = Session(base)
    if default_backend is not None and run.config.backend is None:
        run = run._derive(backend=default_backend)
    return run


def _repeat_checks(
    build_program: "Callable[[], Program] | Program",
    session: Session,
    trials: int,
) -> DetectionResult:
    """Check the program ``trials`` times; count the failing runs.

    A callable ``build_program`` is re-invoked **per trial**, so stochastic
    program builders resample each run (a builder built once and reused
    would silently freeze its random draws across the whole experiment).

    With ``config.shard`` the trials run as self-contained points across a
    process pool (:mod:`repro.workloads.sharding`): one root draw from the
    session stream spawns every per-trial seed, so a seeded sharded
    experiment is pinned end to end and identical for any worker count.
    """
    config = session.config
    if config.shard and trials > 1:
        from .sharding import run_sharded_points, spawn_point_seeds

        # One draw from the session stream roots every trial seed: the
        # session stays the single entropy source, exactly as in the serial
        # path, and the spawned children are independent of worker count.
        root = int(session.rng.integers(0, np.iinfo(np.int64).max))
        points = []
        for seed in spawn_point_seeds(root, trials):
            program = build_program() if callable(build_program) else build_program
            points.append((program, config.replace(seed=seed, shard=False)))
        reports = run_sharded_points(points, config.max_workers)
        return DetectionResult(
            program_name=points[-1][0].name,
            ensemble_size=config.ensemble_size,
            trials=trials,
            num_failing_runs=sum(1 for report in reports if not report.passed),
        )
    failing = 0
    program: Program | None = None
    for _ in range(trials):
        program = build_program() if callable(build_program) else build_program
        if not session.check(program).passed:
            failing += 1
    if program is None:  # trials == 0: still report the workload's name
        program = build_program() if callable(build_program) else build_program
    return DetectionResult(
        program_name=program.name,
        ensemble_size=session.config.ensemble_size,
        trials=trials,
        num_failing_runs=failing,
    )


def detection_rate(
    build_buggy_program: "Callable[[], Program] | Program",
    *,
    trials: int = 20,
    config: RunConfig | None = None,
    session: Session | None = None,
) -> float:
    """Fraction of checking runs on a *buggy* program in which some assertion fails."""
    run = _session_for("detection_rate", config, session)
    return _repeat_checks(build_buggy_program, run, trials).failure_fraction


def false_positive_rate(
    build_correct_program: "Callable[[], Program] | Program",
    *,
    trials: int = 20,
    config: RunConfig | None = None,
    session: Session | None = None,
) -> float:
    """Fraction of checking runs on a *correct* program in which some assertion fails."""
    run = _session_for("false_positive_rate", config, session)
    return _repeat_checks(build_correct_program, run, trials).failure_fraction


def ensemble_size_sweep(
    build_correct_program: "Callable[[], Program] | Program",
    build_buggy_program: "Callable[[], Program] | Program",
    sizes: Sequence[int] = (4, 8, 16, 32, 64),
    trials: int = 20,
    *,
    config: RunConfig | None = None,
    session: Session | None = None,
) -> list[dict]:
    """Detection rate and false-positive rate as functions of the ensemble size."""
    base = _session_for("ensemble_size_sweep", config, session)
    rows = []
    for size in sizes:
        point = base._derive(ensemble_size=size)
        rows.append(
            {
                "ensemble_size": size,
                "detection_rate": point.detection_rate(
                    build_buggy_program, trials
                ),
                "false_positive_rate": point.false_positive_rate(
                    build_correct_program, trials
                ),
            }
        )
    return rows


def significance_sweep(
    build_correct_program: "Callable[[], Program] | Program",
    build_buggy_program: "Callable[[], Program] | Program",
    significances: Sequence[float] = (0.01, 0.05, 0.10),
    *,
    trials: int = 20,
    config: RunConfig | None = None,
    session: Session | None = None,
) -> list[dict]:
    """Detection/false-positive trade-off as the significance level varies."""
    base = _session_for("significance_sweep", config, session)
    rows = []
    for significance_level in significances:
        point = base._derive(significance=significance_level)
        rows.append(
            {
                "significance": significance_level,
                "detection_rate": point.detection_rate(
                    build_buggy_program, trials
                ),
                "false_positive_rate": point.false_positive_rate(
                    build_correct_program, trials
                ),
            }
        )
    return rows


def readout_error_sweep(
    build_correct_program: "Callable[[], Program] | Program",
    build_buggy_program: "Callable[[], Program] | Program",
    error_rates: Sequence[float] = (0.0, 0.01, 0.05),
    *,
    trials: int = 20,
    config: RunConfig | None = None,
    session: Session | None = None,
) -> list[dict]:
    """Detection/false-positive robustness as symmetric readout error grows.

    Each rate ``p`` becomes a ``ReadoutErrorModel(p01=p, p10=p)``.  With the
    default density backend the channel rides natively in the readout path
    (one exact noisy plan walk per checking run); any other backend falls
    back to the executor's per-sample corruption, so the sweep doubles as a
    cross-backend consistency experiment.
    """
    base = _session_for(
        "readout_error_sweep", config, session, default_backend="density"
    )
    rows = []
    for rate in error_rates:
        point = base._derive(
            readout_error=ReadoutErrorModel(p01=float(rate), p10=float(rate))
        )
        rows.append(
            {
                "readout_error": float(rate),
                "detection_rate": point.detection_rate(
                    build_buggy_program, trials
                ),
                "false_positive_rate": point.false_positive_rate(
                    build_correct_program, trials
                ),
            }
        )
    return rows


def noise_model_for_rate(
    channel: Callable[[float], "KrausChannel"], rate: float
) -> NoiseModel | None:
    """Per-gate noise model for one sweep point (``None`` at rate 0).

    Shared by every gate-noise sweep: a zero rate runs the noiseless
    executor path outright instead of threading an identity channel through
    the trajectory machinery.
    """
    return NoiseModel.from_channels(channel(float(rate))) if rate > 0.0 else None


def gate_noise_sweep(
    build_correct_program: "Callable[[], Program] | Program",
    build_buggy_program: "Callable[[], Program] | Program",
    error_rates: Sequence[float] = (0.0, 0.002, 0.01),
    channel: Callable[[float], "KrausChannel"] = depolarizing,
    *,
    trials: int = 20,
    config: RunConfig | None = None,
    session: Session | None = None,
) -> list[dict]:
    """Detection/false-positive robustness as per-gate Pauli noise grows.

    Each rate ``p`` becomes ``NoiseModel.from_channels(channel(p))`` applied
    after every gate to every touched qubit.  With the default trajectory
    backend the executor unravels the Pauli channel into a batched
    Monte-Carlo ensemble — one plan walk per checking run at any register
    width the statevector itself can hold — where the density backend would
    need ``4^n`` memory.  ``p = 0`` runs noiseless for a clean baseline.
    """
    base = _session_for(
        "gate_noise_sweep", config, session, default_backend="trajectory"
    )
    rows = []
    for rate in error_rates:
        point = base._derive(noise=noise_model_for_rate(channel, rate))
        rows.append(
            {
                "gate_error": float(rate),
                "channel": channel(float(rate)).name,
                "detection_rate": point.detection_rate(
                    build_buggy_program, trials
                ),
                "false_positive_rate": point.false_positive_rate(
                    build_correct_program, trials
                ),
            }
        )
    return rows


def assertion_cost(
    program: Program,
    ensemble_size: int = 16,
    *,
    config: RunConfig | None = None,
) -> dict:
    """Cost model of checking a program's assertions.

    The paper's methodology re-simulates the program prefix once per
    breakpoint, so its dominant cost is the total number of simulated gates
    summed over breakpoints, multiplied by the ensemble size when the faithful
    "rerun" mode is used.  The incremental executor walks the shared-prefix
    execution plan once, so its cost is just the gates up to the last
    breakpoint (``incremental_sample_gates``).  A ``config`` supplies the
    ensemble size when given (nothing is simulated here — the one knob the
    model needs is the ensemble width).

    The plan comes from the process-global
    :class:`~repro.compiler.plan_cache.PlanCache`, and the row carries the
    reuse counters — how often this plan was served from cache and how much
    gate work snapshot-served runs skipped — so sweep reuse is observable
    from the report layer.
    """
    if config is not None:
        ensemble_size = config.ensemble_size
    cache = default_plan_cache()
    plan = cache.plan_for(program)
    gates_per_breakpoint = [segment.gates_before for segment in plan.segments]
    total_prefix_gates = int(sum(gates_per_breakpoint))
    return {
        "program": program.name,
        "num_assertions": plan.num_breakpoints,
        "program_gates": program.num_gates(),
        "gates_per_breakpoint": gates_per_breakpoint,
        "total_prefix_gates": total_prefix_gates,
        "sample_mode_simulated_gates": total_prefix_gates,
        "incremental_sample_gates": plan.total_gates,
        "incremental_speedup": (
            total_prefix_gates / plan.total_gates if plan.total_gates else 1.0
        ),
        "rerun_mode_simulated_gates": total_prefix_gates * ensemble_size,
        "plan_cache_hits": plan.cache_hits,
        "shared_prefix_gates_saved": plan.shared_prefix_gates_saved,
        "static_short_circuits": plan.static_short_circuits,
        "static_gates_saved": plan.static_gates_saved,
        "plan_cache": cache.stats(),
    }
