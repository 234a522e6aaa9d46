"""Subprocess job execution: reusable workers, one killable attempt at a time.

The unit of fault isolation is the **attempt**: every attempt of every job
runs in a worker subprocess that serves nothing else while it runs, so a
SIGKILL, an OOM kill, a segfault in a native extension, or an injected
crash takes down exactly one attempt — never the service, never another
job, and never a queue's worth of siblings.

A :class:`WorkerPool` forks each worker once and then sends it attempt
after attempt over its pipe; between attempts the worker keeps its warm
plan and snapshot caches, so a repeated program is served from snapshots.
A worker leaves the pool when its attempt crashed, timed out or was
cancelled (it is dead or killed), when it *reported* an exception (it is
retired: whatever raised may have left its state damaged), or after
:data:`MAX_WORKER_ATTEMPTS` attempts.  A worker found dead while idle is
replaced before the attempt starts, without charging the job an attempt.
The next attempt after any of these gets a freshly forked worker, so a
dead worker never strands the queue.  A worker sees the parent's state as
of its fork: a backend registered or an environment variable set later in
the parent does not reach it, which is why each service owns its pool.

The protocol is deliberately dumb: the parent sends a payload holding a
pickled program plus the job's pinned :class:`~repro.core.config.RunConfig`
JSON, the worker runs the ordinary
:func:`repro.core.checker.check_program` path and sends back either
``("ok", report_json)`` or ``("error", kind, detail)`` over the pipe.
Exceptions cross the boundary as *strings*, so an unpickleable exception
can at worst crash its own attempt — it cannot wedge the parent's receive
loop.  Anything that dies without a message is classified ``crash``; a
parent-side deadline that expires first is classified ``timeout`` (the
worker is SIGKILLed).

:class:`RetryPolicy` — exponential backoff with deterministic jitter — is
the retry schedule :class:`~repro.service.jobs.LocalService` applies to
crashed attempts.  Sharded sweeps (:mod:`repro.workloads.sharding`) run
their points as service jobs, so this module is the repo's only process
boundary.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
import traceback
from dataclasses import dataclass

import numpy as np

from ..core.checker import check_program
from ..core.config import RunConfig
from .faults import FaultInjector

__all__ = [
    "MAX_WORKER_ATTEMPTS",
    "RetryPolicy",
    "AttemptOutcome",
    "WorkerPool",
    "run_attempt",
    "worker_context",
]

#: Attempts one worker serves before it is retired and replaced by a fresh
#: fork; bounds whatever a long-lived worker accumulates.
MAX_WORKER_ATTEMPTS = 100


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``max_retries`` counts retries *after* the first attempt (so a job runs
    at most ``1 + max_retries`` times).  The delay before retry ``n``
    (0-based) is ``backoff_base * 2**n``, capped at ``backoff_cap``, then
    scaled by a jitter factor in ``[1, 1 + jitter]`` drawn from a stream
    derived from ``(seed, n)`` — deterministic when a seed is supplied, so
    chaos tests reproduce their exact schedule.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 5.0
    jitter: float = 0.5

    def retries_left(self, failures: int) -> bool:
        """Whether another attempt is allowed after ``failures`` failures."""
        return failures <= self.max_retries

    def delay(self, retry: int, seed: "int | None" = None) -> float:
        """Seconds to sleep before 0-based retry number ``retry``."""
        if self.backoff_base <= 0.0:
            return 0.0
        base = min(self.backoff_cap, self.backoff_base * (2.0 ** retry))
        entropy = [retry] if seed is None else [int(seed), retry]
        draw = np.random.default_rng(
            np.random.SeedSequence(entropy)
        ).uniform()
        return base * (1.0 + self.jitter * float(draw))


@dataclass
class AttemptOutcome:
    """What one subprocess attempt produced, classified for the retry loop.

    ``status`` is one of ``"ok"`` (``report_json`` holds the result),
    ``"timeout"`` (deadline expired, worker SIGKILLed), ``"cancelled"``
    (the parent cancelled the job mid-attempt, worker SIGKILLed),
    ``"crash"`` (worker died without reporting — SIGKILL/OOM/segfault;
    ``exitcode`` says how), or ``"error"`` (worker caught and reported a
    Python exception — deterministic, so the service fails fast instead of
    retrying).
    """

    status: str
    report_json: "str | None" = None
    detail: str = ""
    exitcode: "int | None" = None
    duration: float = 0.0


def worker_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context workers run under.

    ``fork`` where available (cheap, and workers start with the parent's
    warm plan cache); the platform default elsewhere.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _worker_main(payload: dict, conn) -> None:
    """Run one attempt inside a worker: maybe fault, run the job, report.

    Module-level (picklable under spawn) and communicates only strings, so
    every exception — pickleable or not — crosses the pipe.  The connection
    belongs to the worker loop, which keeps it open for the next attempt.
    """
    try:
        injector = FaultInjector.parse(payload.get("fault_spec") or "")
        injector.fire(payload.get("job_index", -1), payload.get("attempt", 0))
        program = pickle.loads(payload["program_bytes"])
        config = RunConfig.from_json(payload["config_json"])
        report = check_program(program, config)
        conn.send(("ok", report.to_json()))
    except BaseException as exc:  # noqa: BLE001 - the boundary must report
        try:
            conn.send(
                (
                    "error",
                    f"{type(exc).__name__}: {exc}",
                    traceback.format_exc(),
                )
            )
        except Exception:
            pass  # broken pipe: the parent will classify this as a crash


def _worker_loop(conn) -> None:
    """Worker-process body: serve attempts from the pipe until it closes."""
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            return
        # A global lookup on every attempt, so a replacement bound to the
        # module attribute before this worker forked is the one that runs.
        _worker_main(payload, conn)


#: How long a worker that was killed (or answered) may take to exit.
_JOIN_GRACE_SECONDS = 5.0

#: Parent-side poll quantum while waiting on an attempt.
_POLL_SECONDS = 0.02

#: Held across every worker fork in the process.  A process forked while a
#: sibling's pipe end is still open in the parent inherits that end and
#: hides the sibling's EOF; with the lock, the parent closes each new
#: worker's end before any other pool — this service's or another's — forks.
_SPAWN_LOCK = threading.Lock()


class _Worker:
    """One forked worker process and the parent's end of its pipe."""

    __slots__ = ("proc", "conn", "attempts")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.attempts = 0

    def retire(self) -> None:
        """Kill the process (a no-op if it is already dead) and reap it."""
        self.conn.close()
        self.proc.kill()
        self.proc.join(_JOIN_GRACE_SECONDS)


class WorkerPool:
    """Forked workers reused across attempts; one pool per service.

    Workers fork lazily, on the first attempt that finds no idle one, so a
    pool never holds more workers than it has had attempts in flight at
    once.  :meth:`close` retires the idle workers; a worker still running
    an attempt is retired when that attempt ends.
    """

    def __init__(self, ctx: "multiprocessing.context.BaseContext | None" = None):
        self._ctx = ctx or worker_context()
        self._lock = threading.Lock()
        self._idle: "list[_Worker]" = []
        self._closed = False

    def _spawn(self) -> _Worker:
        with _SPAWN_LOCK:
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_loop, args=(child_conn,), daemon=True,
                name="repro-worker",
            )
            try:
                proc.start()
            finally:
                child_conn.close()
        return _Worker(proc, parent_conn)

    def _checkout(self) -> _Worker:
        """An idle live worker, or a fresh fork when there is none.

        A worker that died while idle is reaped and replaced here, before
        the attempt starts, so its death costs the job nothing.
        """
        while True:
            with self._lock:
                worker = self._idle.pop() if self._idle else None
            if worker is None:
                return self._spawn()
            if worker.proc.is_alive():
                return worker
            worker.retire()

    def _checkin(self, worker: _Worker) -> None:
        with self._lock:
            if not self._closed and worker.attempts < MAX_WORKER_ATTEMPTS:
                self._idle.append(worker)
                return
        worker.retire()

    def run(
        self,
        payload: dict,
        timeout: "float | None" = None,
        is_cancelled=None,
    ) -> AttemptOutcome:
        """Run one attempt on a worker and classify the outcome.

        Only a worker that answered ``ok`` goes back to the pool; every
        other outcome retires it.
        """
        worker = self._checkout()
        worker.attempts += 1
        conn, proc = worker.conn, worker.proc
        start = time.monotonic()
        deadline = None if timeout is None else start + timeout
        message = None
        timed_out = cancelled = False
        try:
            conn.send(payload)
        except OSError:
            pass  # broken pipe: the worker died before the payload landed
        else:
            while True:
                try:
                    if conn.poll(_POLL_SECONDS):
                        message = conn.recv()
                        break
                except (EOFError, OSError):
                    break  # pipe closed without a message: a crash
                cancelled = is_cancelled is not None and is_cancelled()
                timed_out = deadline is not None and time.monotonic() >= deadline
                if cancelled or timed_out or not proc.is_alive():
                    # One last zero-timeout poll takes an answer that landed
                    # exactly at the cancel, the deadline or the worker's
                    # exit.  It is also the backstop for an EOF that a pipe
                    # end inherited by another process would hide.
                    try:
                        if conn.poll(0):
                            message = conn.recv()
                    except (EOFError, OSError):
                        pass
                    break
        duration = time.monotonic() - start
        if message is not None and message[0] == "ok":
            self._checkin(worker)
            return AttemptOutcome(
                status="ok", report_json=message[1], duration=duration
            )
        worker.retire()
        if message is not None:
            return AttemptOutcome(
                status="error", detail=message[1], duration=duration
            )
        if cancelled:
            return AttemptOutcome(
                status="cancelled",
                detail="killed after the client cancelled the job",
                exitcode=proc.exitcode,
                duration=duration,
            )
        if timed_out:
            return AttemptOutcome(
                status="timeout",
                detail=f"killed after exceeding job_timeout={timeout:g}s",
                exitcode=proc.exitcode,
                duration=duration,
            )
        return AttemptOutcome(
            status="crash",
            detail=f"worker died without reporting (exitcode {proc.exitcode})",
            exitcode=proc.exitcode,
            duration=duration,
        )

    def close(self) -> None:
        """Retire the idle workers; busy ones retire when their attempt ends."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for worker in idle:
            worker.retire()


def run_attempt(
    payload: dict,
    timeout: "float | None" = None,
    ctx: "multiprocessing.context.BaseContext | None" = None,
    is_cancelled=None,
    *,
    pool: "WorkerPool | None" = None,
) -> AttemptOutcome:
    """Run one job attempt on a worker subprocess and classify the outcome.

    ``payload`` carries ``program_bytes`` (pickled program), ``config_json``
    (the job's pinned config), ``job_index``/``attempt`` (fault-injection
    coordinates) and optionally ``fault_spec``.  On deadline expiry the
    worker is SIGKILLed and the outcome is ``"timeout"`` — the guarantee the
    acceptance criterion words as "within ``job_timeout`` + grace".
    ``is_cancelled`` (a no-argument predicate, polled between receives)
    lets the parent withdraw the attempt mid-flight: once it returns true
    the worker is SIGKILLed and the outcome is ``"cancelled"``, observed
    within one ``_POLL_SECONDS`` quantum.

    The attempt runs on a worker of ``pool``; without one it runs on a
    single-use pool under ``ctx``, whose worker is retired afterwards.
    """
    if pool is not None:
        return pool.run(payload, timeout, is_cancelled)
    pool = WorkerPool(ctx)
    try:
        return pool.run(payload, timeout, is_cancelled)
    finally:
        pool.close()
