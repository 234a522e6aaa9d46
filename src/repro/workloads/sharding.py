"""Process-sharded sweep execution with deterministic seed spawning.

A sweep is an embarrassingly parallel list of checking runs; this module
shards them across worker processes without giving up the repo's
determinism guarantees:

* **per-point seeds** are spawned from a single ``numpy.random.SeedSequence``
  (the same discipline the trajectory engine uses for per-member streams),
  so each point owns a statistically independent, fully pinned stream no
  matter which worker runs it;
* **points are self-contained** — a :class:`~repro.lang.program.Program`
  plus a :class:`~repro.core.config.RunConfig` — and run as jobs of a
  :class:`~repro.service.jobs.LocalService`, the repo's one process
  boundary: every point is a fresh subprocess attempt running the ordinary
  :func:`~repro.core.checker.check_program` path, under the point's own
  ``job_timeout`` and crash-retry budget and the service's
  ``REPRO_FAULT_SPEC`` harness (keyed by point index);
* **results merge in point order**, so a sharded sweep returns
  byte-identical reports to the ``max_workers=1`` in-process run of the
  same points.

The knobs are spelled in :class:`~repro.core.config.RunConfig`:
``shard=True`` routes the repeated-trial helpers in
:mod:`repro.workloads.ensembles` through :func:`run_sharded_points`, and
``max_workers`` caps the concurrent workers (``None`` = one per CPU core).
Each point compiles its plan in its own worker.  Only registry-name
backends shard — a backend instance or factory is live process state that
cannot cross the boundary, and raises the usual serialization
``TypeError``.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

import numpy as np

from ..core.checker import check_program
from ..core.config import RunConfig
from ..core.report import DebugReport
from ..lang.program import Program
from ..service.jobs import JobState, LocalService

__all__ = [
    "available_workers",
    "spawn_point_seeds",
    "sweep_point_configs",
    "run_sharded_points",
    "sharded_sweep",
]


def available_workers(max_workers: int | None = None) -> int:
    """Effective worker count (always at least 1).

    ``None`` means one worker per CPU core.  An explicit ``max_workers`` is
    honoured as given — oversubscribing cores costs scheduling, never
    correctness, and determinism must not depend on the machine's core
    count.
    """
    if max_workers is None:
        return os.cpu_count() or 1
    return max(1, int(max_workers))


def spawn_point_seeds(
    root_seed: "int | np.random.SeedSequence | None", count: int
) -> list[int]:
    """``count`` independent point seeds spawned from one root.

    Children are converted to plain ints via their first generated state
    word — *not* via ``.entropy``, which every child shares with the root —
    so each seed pins a distinct stream and the whole list is reproducible
    from ``root_seed`` alone (``None`` draws the root from OS entropy).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    root = (
        root_seed
        if isinstance(root_seed, np.random.SeedSequence)
        else np.random.SeedSequence(root_seed)
    )
    return [
        int(child.generate_state(1, np.uint64)[0]) for child in root.spawn(count)
    ]


def sweep_point_configs(
    base_config: RunConfig,
    overrides: Sequence[dict],
    *,
    root_seed: "int | np.random.SeedSequence | None" = None,
) -> list[RunConfig]:
    """One pinned config per sweep point: overrides applied, seeds spawned.

    Each point gets ``base_config`` with its override dict (``noise=``,
    ``readout_error=``, ``significance=`` …) plus its own spawned seed;
    ``shard`` is stripped so a worker never recursively shards.  The seed
    root defaults to ``base_config.seed``.
    """
    seeds = spawn_point_seeds(
        base_config.seed if root_seed is None else root_seed, len(overrides)
    )
    return [
        base_config.replace(seed=seed, shard=False, **dict(point))
        for seed, point in zip(seeds, overrides)
    ]


def run_sharded_points(
    points: "Sequence[tuple[Program, RunConfig]]",
    max_workers: int | None = None,
) -> list[DebugReport]:
    """Check every ``(program, config)`` point; reports in point order.

    The points run as jobs of a short-lived
    :class:`~repro.service.jobs.LocalService` with ``max_workers`` slots,
    each under its own config's ``job_timeout`` and crash-retry budget
    (``max_retries``/``backoff_base``).  Points whose jobs end without a
    report raise one ``RuntimeError`` naming each lost point with its
    terminal state and last failure detail.

    With one effective worker (or one point) the points run in-process,
    each config still round-tripped through JSON (the registry-name gate);
    this path never fires ``REPRO_FAULT_SPEC``.  Every point is seeded by
    its own config, so ``max_workers=1`` and ``max_workers=N`` runs are
    byte-identical.
    """
    workers = available_workers(max_workers)
    if workers <= 1 or len(points) <= 1:
        return [
            check_program(program, RunConfig.from_json(config.to_json()))
            for program, config in points
        ]
    with LocalService(max_workers=workers) as service:
        ids = [service.submit(program, config) for program, config in points]
        jobs = service.wait_all(ids)
    lost = [
        (index, job)
        for index, job in enumerate(jobs)
        if job.state not in JobState.WITH_REPORT
    ]
    if lost:
        raise RuntimeError(
            f"sweep points {[index for index, _ in lost]} were lost: "
            + "; ".join(
                f"point {index} {job.state} after {job.attempts} attempt(s): "
                f"{job.failure_chain[-1]['detail']}"
                for index, job in lost
            )
        )
    return [job.report for job in jobs]


def sharded_sweep(
    build_program: "Callable[[], Program] | Program",
    base_config: RunConfig,
    overrides: Sequence[dict],
    *,
    max_workers: int | None = None,
) -> list[DebugReport]:
    """Run one checking point per override dict, sharded across processes.

    The canonical "100-point noise sweep" entry: ``overrides`` is a list of
    per-point config overrides (e.g. ``[{"noise": model} for model in
    models]``), programs are built **in the parent** (one builder call per
    point, so stochastic builders resample exactly as the serial sweeps do),
    and the reports return in point order.  ``max_workers`` defaults to
    ``base_config.max_workers``.
    """
    configs = sweep_point_configs(base_config, overrides)
    points = []
    for config in configs:
        program = build_program() if callable(build_program) else build_program
        points.append((program, config))
    if max_workers is None:
        max_workers = base_config.max_workers
    return run_sharded_points(points, max_workers)
