"""Process-sharded sweep execution with deterministic seed spawning.

A sweep is an embarrassingly parallel list of checking runs; this module
shards them across a ``concurrent.futures.ProcessPoolExecutor`` without
giving up the repo's determinism guarantees:

* **per-point seeds** are spawned from a single ``numpy.random.SeedSequence``
  (the same discipline the trajectory engine uses for per-member streams),
  so each point owns a statistically independent, fully pinned stream no
  matter which worker runs it;
* **points are self-contained** — a :class:`~repro.lang.program.Program`
  plus a JSON-serialised :class:`~repro.core.config.RunConfig` cross the
  process boundary, and each worker runs the ordinary
  :func:`~repro.core.checker.check_program` path (plan cache included: every
  worker process keeps its own cache, so repeated points still compile
  once per worker);
* **results merge in point order** (``ProcessPoolExecutor.map`` preserves
  input order), so a sharded sweep returns byte-identical reports to the
  ``max_workers=1`` in-process run of the same points.

The knobs are spelled in :class:`~repro.core.config.RunConfig`:
``shard=True`` routes the repeated-trial helpers in
:mod:`repro.workloads.ensembles` through :func:`run_sharded_points`, and
``max_workers`` caps the pool (``None`` = one worker per CPU core).
Only registry-name backends shard — a backend instance or factory is live
process state that cannot cross the boundary, and raises the usual
serialization ``TypeError``.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

import numpy as np

from ..core.checker import check_program
from ..core.config import RunConfig
from ..core.report import DebugReport
from ..lang.program import Program
from ..service.faults import FaultInjector
from ..service.workers import RetryPolicy

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


def _check_point(payload: tuple) -> str:
    """Worker body: run one self-contained checking point.

    Module-level (picklable) on purpose; the payload is a pickled program
    plus a JSON config, and the result is the report's JSON text — plain
    bytes/str in both directions keeps the process boundary transparent.
    Pool payloads additionally carry ``(point_index, attempt)``, the
    coordinates the :mod:`repro.service.faults` chaos harness fires on
    (gated by ``REPRO_FAULT_SPEC``; the in-process path never passes them,
    so an injected crash can only ever kill a pool worker).
    """
    program_bytes, config_json, *fault_coords = payload
    if fault_coords:
        FaultInjector.from_env().fire(fault_coords[0], fault_coords[1])
    program = pickle.loads(program_bytes)
    report = check_program(program, RunConfig.from_json(config_json))
    return report.to_json()


def run_sharded_points(
    points: "Sequence[tuple[Program, RunConfig]]",
    max_workers: int | None = None,
    *,
    retry: "RetryPolicy | None" = None,
) -> list[DebugReport]:
    """Check every ``(program, config)`` point, sharded across processes.

    Results come back in point order regardless of worker scheduling.  With
    one effective worker (or one point) the same payloads run in-process —
    the code path is otherwise identical, which is what makes
    ``max_workers=1`` vs ``max_workers=N`` runs byte-identical: every point
    is seeded by its own config, not by shared session state.

    **Crash recovery.**  A worker killed mid-point (OOM, SIGKILL, an
    injected chaos fault) breaks the whole ``ProcessPoolExecutor``; instead
    of surfacing ``BrokenProcessPool`` and losing the sweep, the finished
    points are kept, a fresh pool is spun up, and only the unfinished
    points are resubmitted — the same bounded retry/backoff policy the job
    service applies to crashed workers (``retry`` defaults to the first
    point's ``max_retries``/``backoff_base``).  Each resubmission is the
    identical seeded payload, so a recovered sweep is byte-identical to an
    uninterrupted one.  Points whose crashes exhaust
    the budget raise a ``RuntimeError`` naming them.
    """
    workers = available_workers(max_workers)
    if workers <= 1 or len(points) <= 1:
        texts = [
            _check_point((pickle.dumps(program), config.to_json()))
            for program, config in points
        ]
        return [DebugReport.from_json(text) for text in texts]

    if retry is None:
        first = points[0][1]
        retry = RetryPolicy(
            max_retries=first.max_retries, backoff_base=first.backoff_base
        )
    payloads = {
        index: (pickle.dumps(program), config.to_json())
        for index, (program, config) in enumerate(points)
    }
    attempts = {index: 0 for index in payloads}
    results: "dict[int, str]" = {}
    pending = dict(payloads)
    crash_rounds = 0
    while pending:
        crashed = False
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(
                    _check_point,
                    (*payload, index, attempts[index]),
                ): index
                for index, payload in pending.items()
            }
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures[future]
                    try:
                        results[index] = future.result()
                        del pending[index]
                    except BrokenProcessPool:
                        crashed = True
                    # Any other exception is a deterministic worker error
                    # (bad config, bad program) and propagates as before.
                if crashed:
                    break
        if pending and not crashed:  # pragma: no cover - defensive
            crashed = True
        if crashed and pending:
            crash_rounds += 1
            for index in pending:
                attempts[index] += 1
            if not retry.retries_left(crash_rounds):
                lost = sorted(pending)
                raise RuntimeError(
                    f"sweep points {lost} crashed their workers "
                    f"{crash_rounds} time(s); retry budget "
                    f"(max_retries={retry.max_retries}) exhausted"
                )
            time.sleep(retry.delay(crash_rounds - 1))
    return [DebugReport.from_json(results[index]) for index in range(len(points))]


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
