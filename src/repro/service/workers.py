"""Subprocess job execution: one attempt = one killable worker process.

The unit of fault isolation is the **attempt**: every attempt of every job
runs in its own subprocess, so a SIGKILL, an OOM kill, a segfault in a
native extension, or an injected crash takes down exactly one attempt —
never the service, never another job, and never a queue's worth of siblings.
"Worker-pool self-healing" falls out of the shape: a dead worker *is* its
failed attempt, and the next attempt (or next job) simply forks a fresh
process; there is no long-lived worker whose death could strand the queue.

The protocol is deliberately dumb: the parent sends a pickled program plus
the job's pinned :class:`~repro.core.config.RunConfig` JSON, the child runs
the ordinary :func:`repro.core.checker.check_program` path and sends back
either ``("ok", report_json)`` or ``("error", kind, detail)`` over a pipe.
Exceptions cross the boundary as *strings*, so an unpickleable exception
can at worst crash its own attempt — it cannot wedge the parent's receive
loop.  Anything that dies without a message is classified ``crash``; a
parent-side deadline that expires first is classified ``timeout`` (the
child is SIGKILLed).

:class:`RetryPolicy` — exponential backoff with deterministic jitter — is
shared verbatim with :mod:`repro.workloads.sharding`, so sharded sweeps and
the job service recover from crashed workers through the same code path.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from dataclasses import dataclass

import numpy as np

from ..core.checker import check_program
from ..core.config import RunConfig
from .faults import FaultInjector

__all__ = ["RetryPolicy", "AttemptOutcome", "run_attempt", "worker_context"]


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
    ``"timeout"`` (deadline expired, child SIGKILLed), ``"cancelled"``
    (the parent's cancel event fired mid-attempt, child SIGKILLed),
    ``"crash"`` (child died without reporting — SIGKILL/OOM/segfault;
    ``exitcode`` says how), or ``"error"`` (child caught and reported a
    Python exception — deterministic, so the service fails fast instead of
    retrying).
    """

    status: str
    report_json: "str | None" = None
    detail: str = ""
    exitcode: "int | None" = None
    duration: float = 0.0


def worker_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context attempts run under.

    ``fork`` where available (cheap, and children inherit the parent's warm
    plan cache); the platform default elsewhere.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _worker_main(payload: dict, conn) -> None:
    """Child-process body: maybe fault, then run the job, then report.

    Runs module-level (picklable under spawn) and communicates only
    strings, so every exception — pickleable or not — crosses the pipe.
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
    finally:
        try:
            conn.close()
        except Exception:
            pass


#: How long a child that already answered (or was killed) may take to exit.
_JOIN_GRACE_SECONDS = 5.0

#: Parent-side poll quantum while waiting on an attempt.
_POLL_SECONDS = 0.02


def run_attempt(
    payload: dict,
    timeout: "float | None" = None,
    ctx: "multiprocessing.context.BaseContext | None" = None,
    cancel_event=None,
) -> AttemptOutcome:
    """Run one job attempt in a fresh subprocess and classify the outcome.

    ``payload`` carries ``program_bytes`` (pickled program), ``config_json``
    (the job's pinned config), ``job_index``/``attempt`` (fault-injection
    coordinates) and optionally ``fault_spec``.  On deadline expiry the
    child is SIGKILLed and the outcome is ``"timeout"`` — the guarantee the
    acceptance criterion words as "within ``job_timeout`` + grace".
    ``cancel_event`` (a :class:`threading.Event`) lets the parent withdraw
    the attempt mid-flight: the child is SIGKILLed and the outcome is
    ``"cancelled"``, observed within one ``_POLL_SECONDS`` quantum.
    """
    ctx = ctx or worker_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_worker_main, args=(payload, child_conn), daemon=True
    )
    start = time.monotonic()
    proc.start()
    child_conn.close()
    deadline = None if timeout is None else start + timeout
    message = None
    timed_out = False
    cancelled = False
    try:
        while True:
            try:
                if parent_conn.poll(_POLL_SECONDS):
                    message = parent_conn.recv()
                    break
            except (EOFError, OSError):
                break  # pipe closed without a message: the child crashed
            if cancel_event is not None and cancel_event.is_set():
                # Like the deadline race below: take an answer that landed
                # exactly at cancellation rather than discarding it.
                try:
                    if parent_conn.poll(0):
                        message = parent_conn.recv()
                        break
                except (EOFError, OSError):
                    break
                cancelled = True
                break
            if deadline is not None and time.monotonic() >= deadline:
                # One last zero-timeout poll closes the race where the
                # child answered exactly at the deadline.
                try:
                    if parent_conn.poll(0):
                        message = parent_conn.recv()
                        break
                except (EOFError, OSError):
                    break
                timed_out = True
                break
            if not proc.is_alive():
                # Dead child; drain any message it managed to send first.
                try:
                    if parent_conn.poll(0):
                        message = parent_conn.recv()
                except (EOFError, OSError):
                    pass
                break
        if timed_out or cancelled:
            proc.kill()
        proc.join(_JOIN_GRACE_SECONDS)
        if proc.is_alive():  # pragma: no cover - defensive
            proc.kill()
            proc.join(_JOIN_GRACE_SECONDS)
    finally:
        parent_conn.close()
    duration = time.monotonic() - start
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
    if message is not None:
        if message[0] == "ok":
            return AttemptOutcome(
                status="ok", report_json=message[1], duration=duration
            )
        return AttemptOutcome(
            status="error",
            detail=message[1],
            exitcode=proc.exitcode,
            duration=duration,
        )
    return AttemptOutcome(
        status="crash",
        detail=f"worker died without reporting (exitcode {proc.exitcode})",
        exitcode=proc.exitcode,
        duration=duration,
    )
