"""Debugging-as-a-service: the async job layer (`LocalService`).

Clients submit ``{"config": <RunConfig JSON>, "program": <QASM>}`` (or a
:class:`~repro.lang.program.Program` directly), get a job id back
immediately, and poll or block for the finished
:class:`~repro.core.report.DebugReport` — the ``run_async`` /
``wait_for_job`` split of PyQuil's QAM API, built on the wire formats PR 5
made JSON-round-trippable.  Fault tolerance is the first-class design axis:

* **per-job seeds** — a job submitted with ``seed=None`` gets a seed derived
  from the service's root ``SeedSequence`` and the job's submission index,
  so results are reproducible regardless of worker scheduling, and a
  *retried* job re-runs the exact same seeded computation (its report is
  byte-identical to an uninjected run);
* **timeouts** — ``config.job_timeout`` is enforced by the parent, which
  SIGKILLs the worker subprocess on expiry and parks the job in the
  structured ``TIMEOUT`` state;
* **retry with backoff** — a *crashed* worker (SIGKILL, OOM, abnormal exit)
  is retried up to ``config.max_retries`` times with exponential backoff +
  jitter (:class:`~repro.service.workers.RetryPolicy`); exhausted retries
  produce a ``FAILED`` job carrying the full per-attempt failure chain —
  never a lost job, never a hung client.  Worker-*reported* exceptions are
  deterministic and fail fast without burning retries;
* **self-healing pool** — each service owns a
  :class:`~repro.service.workers.WorkerPool` of forked workers reused
  across attempts; a worker that crashed, timed out, was cancelled or
  reported an exception leaves the pool, and the next attempt gets a fresh
  fork, so the queue never drains;
* **graceful degradation** — the content-addressed
  :class:`~repro.service.result_cache.ResultCache` answers repeat jobs as
  ``CACHED`` and the static analyzer answers fully decidable
  ``static_preflight`` jobs as ``STATIC``, both *inline at submission* —
  these rungs keep working when the pool is saturated or entirely down.

Job lifecycle::

    QUEUED ──▶ RUNNING ──▶ DONE | TIMEOUT | FAILED | CANCELLED
       ├────────────────▶ CACHED | STATIC     (answered at submission)
       └────────────────▶ CANCELLED           (withdrawn while queued)

Each service runs ``max_workers`` long-lived slot threads.  A slot blocks
in the priority queue's ``get`` and runs the job it pops to a terminal
state before it takes the next, so the queue's order is the order in which
free slots start jobs.  Waiters block on one condition over the service
lock, notified whenever a job ends.
"""

from __future__ import annotations

import copy
import itertools
import json
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..core.checker import StatisticalAssertionChecker
from ..core.config import RunConfig
from ..core.report import DebugReport
from ..lang.program import Program
from ..lang.qasm import from_qasm
from .faults import FaultInjector
from .queue import PriorityJobQueue, QueueClosed
from .result_cache import ResultCache
from .workers import RetryPolicy, WorkerPool, run_attempt

__all__ = ["JobState", "Job", "LocalService", "ServiceClosed"]

#: Bound on the summed length of the QASM texts the parse memo keeps.  A
#: parsed program is 16–22 times the size of its text, so the memo holds a
#: few MB of programs at most; a longer text is parsed and not kept.
_PARSE_MEMO_CHARS = 256 * 1024


class ServiceClosed(RuntimeError):
    """A submission to a service that has been closed."""


class JobState:
    """The job lifecycle's state names (plain strings, JSON-native)."""

    QUEUED = "QUEUED"
    RUNNING = "RUNNING"
    DONE = "DONE"
    TIMEOUT = "TIMEOUT"
    FAILED = "FAILED"
    CACHED = "CACHED"
    STATIC = "STATIC"
    CANCELLED = "CANCELLED"

    #: States carrying a report a client can fetch.
    WITH_REPORT = frozenset({DONE, CACHED, STATIC})
    #: States a job never leaves.
    TERMINAL = frozenset({DONE, TIMEOUT, FAILED, CACHED, STATIC, CANCELLED})


@dataclass
class Job:
    """One submitted checking job and everything that happened to it.

    A finished job keeps its report as the JSON text it arrived as (the
    worker's reply, the result-cache entry, or the static rung's report
    serialised once) and drops its program pickle and config JSON, so a
    client that holds many finished jobs holds a few KB for each.
    :attr:`report` decodes that text on every access.
    """

    id: str
    index: int
    program_name: str
    config: RunConfig
    priority: int = 0
    state: str = JobState.QUEUED
    #: Worker attempts started so far (0 for CACHED/STATIC jobs).
    attempts: int = 0
    #: One entry per failed attempt: ``{"attempt", "kind", "detail",
    #: "exitcode", "duration", "backoff"}`` — the structured failure chain
    #: a FAILED/TIMEOUT job ships to the client.
    failure_chain: list = field(default_factory=list)
    cache_key: str = ""
    submitted_at: float = 0.0
    finished_at: "float | None" = None
    #: The pickled program and the config JSON, held only while the job
    #: waits for or runs on a worker.
    _program_bytes: bytes = b""
    _config_json: str = ""
    #: The finished report's JSON; ``None`` while in flight and for a job
    #: that ended without a report.
    _report_json: "str | None" = None
    #: Set by :meth:`LocalService.cancel` under the service lock.
    _cancelled: bool = False

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    @property
    def report(self) -> "DebugReport | None":
        """The finished report (a fresh decode), or ``None`` without one."""
        if self._report_json is None:
            return None
        return DebugReport.from_json(self._report_json)

    def to_dict(self, include_report: bool = True) -> dict:
        """JSON-native job view (the HTTP layer's GET /jobs/<id> body)."""
        payload = {
            "id": self.id,
            "index": self.index,
            "state": self.state,
            "priority": self.priority,
            "attempts": self.attempts,
            "program_name": self.program_name,
            "terminal": self.terminal,
            "failure_chain": [dict(entry) for entry in self.failure_chain],
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
        }
        if include_report:
            payload["report"] = (
                self.report.to_dict() if self.report is not None else None
            )
        return payload


class LocalService:
    """An in-process debugging service: submit, poll, wait, survive.

    Parameters
    ----------
    defaults:
        Base :class:`~repro.core.config.RunConfig` merged under every
        submission that does not bring its own config.
    max_workers:
        Slot threads, each running one job at a time on a worker
        subprocess.  ``0`` models a fully-down pool: nothing leaves the
        queue, but cached and static-decidable submissions still complete
        (the degradation ladder's whole point).
    root_seed:
        Entropy for per-job seed derivation (``None`` = OS entropy).  Jobs
        submitted with an explicit ``config.seed`` keep it.
    fault_spec:
        A :mod:`~repro.service.faults` spec injected into every worker
        (defaults to the ``REPRO_FAULT_SPEC`` environment variable), keyed
        by job submission index — the chaos harness.
    """

    def __init__(
        self,
        defaults: "RunConfig | dict | None" = None,
        *,
        max_workers: int = 2,
        root_seed: "int | None" = None,
        fault_spec: "str | None" = None,
        cache_entries: int = 256,
    ):
        self.defaults = RunConfig.coerce(defaults, caller="LocalService")
        if max_workers < 0:
            raise ValueError("max_workers must be non-negative")
        self.max_workers = int(max_workers)
        root = np.random.SeedSequence(root_seed)
        self._root_entropy = (
            root.entropy
            if isinstance(root.entropy, int)
            else int(root.generate_state(1, np.uint64)[0])
        )
        if fault_spec is None:
            self.fault_injector = FaultInjector.from_env()
        else:
            self.fault_injector = FaultInjector.parse(fault_spec)
        self.queue = PriorityJobQueue()
        self.result_cache = ResultCache(max_entries=cache_entries)
        self._jobs: "dict[str, Job]" = {}
        self._order: "list[str]" = []
        #: QASM text -> the program ``from_qasm`` parsed from it, least
        #: recently used first; the texts' lengths sum to ``_parsed_chars``.
        self._parsed: "OrderedDict[str, Program]" = OrderedDict()
        self._parsed_chars = 0
        self._lock = threading.RLock()
        #: Notified whenever a job turns terminal.
        self._finished = threading.Condition(self._lock)
        self._counter = itertools.count()
        self._closed = False
        self._pool = WorkerPool()
        self._slots = [
            threading.Thread(
                target=self._slot_loop, name=f"repro-service-slot-{slot}",
                daemon=True,
            )
            for slot in range(self.max_workers)
        ]
        for thread in self._slots:
            thread.start()

    # -- submission ------------------------------------------------------

    def submit(
        self,
        program: "Program | str",
        config: "RunConfig | dict | None" = None,
        *,
        priority: int = 0,
    ) -> str:
        """Submit one checking job; returns its job id immediately.

        ``program`` is a :class:`Program` or OpenQASM text; ``config`` a
        :class:`RunConfig`, a config dict, or ``None`` for the service
        defaults.  Validation problems (bad QASM, unknown config keys, a
        non-serializable backend) raise *here*, synchronously — they are
        client errors, not job failures.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is closed")
            index = next(self._counter)
        if isinstance(program, str):
            program = self._parse(program, name=f"job-{index}")
        elif not isinstance(program, Program):
            raise TypeError(
                f"program must be a Program or QASM text, got {type(program)!r}"
            )
        config = (
            self.defaults
            if config is None
            else RunConfig.coerce(config, caller="LocalService.submit")
        )
        if config.seed is None:
            config = config.replace(seed=self._derive_seed(index))
        # Serializability gate: the config must cross the process boundary
        # (and address the result cache) as JSON — fail at submit if not.
        config_json = config.to_json()
        job = Job(
            id=f"job-{index:06d}",
            index=index,
            program_name=program.name,
            config=config,
            priority=int(priority),
            cache_key=ResultCache.key_for(program, config),
            submitted_at=time.time(),
            _config_json=config_json,
        )
        with self._lock:
            self._jobs[job.id] = job
            self._order.append(job.id)
        # Degradation rungs 1 and 2 run inline at submission, so they keep
        # answering when every worker is busy or dead.
        cached = self.result_cache.get(job.cache_key)
        if cached is not None:
            self._finish(job, JobState.CACHED, cached)
            return job.id
        static = self._try_static(program, config)
        if static is not None:
            self._finish(job, JobState.STATIC, static.to_json())
            return job.id
        job._program_bytes = pickle.dumps(program)
        try:
            self.queue.put(job, priority=job.priority)
        except QueueClosed:
            # Closed between the check above and here: the job stays QUEUED,
            # like every job still queued at close.
            raise ServiceClosed("service is closed") from None
        return job.id

    def submit_payload(self, payload: "dict | str") -> str:
        """Submit a wire-format job: ``{"config":…, "program": <qasm>, …}``."""
        if isinstance(payload, (str, bytes)):
            payload = json.loads(payload)
        if not isinstance(payload, dict):
            raise TypeError("payload must be a JSON object")
        if "program" not in payload:
            raise ValueError('payload is missing the "program" key')
        return self.submit(
            payload["program"],
            payload.get("config"),
            priority=int(payload.get("priority", 0)),
        )

    def _parse(self, text: str, name: str) -> Program:
        """``from_qasm(text)`` under ``name``, parsing each distinct text once.

        The memo keeps the parsed program and hands each job a shallow copy
        under the job's name.  The copy shares the frozen instructions, the
        registers and the :class:`~repro.lang.program.InstructionList` that
        carries the fingerprint memo, so a resubmission parses and hashes
        nothing; the service never mutates these programs or hands them
        out.  A text that fails to parse raises every time it is sent.
        """
        with self._lock:
            parsed = self._parsed.get(text)
            if parsed is not None:
                self._parsed.move_to_end(text)
        if parsed is None:
            parsed = from_qasm(text, name=name)
            if len(text) <= _PARSE_MEMO_CHARS:
                with self._lock:
                    if text not in self._parsed:
                        self._parsed[text] = parsed
                        self._parsed_chars += len(text)
                        while self._parsed_chars > _PARSE_MEMO_CHARS:
                            evicted, _ = self._parsed.popitem(last=False)
                            self._parsed_chars -= len(evicted)
        program = copy.copy(parsed)
        program.name = name
        return program

    def _derive_seed(self, index: int) -> int:
        """The pinned seed of submission ``index`` (scheduling-independent)."""
        sequence = np.random.SeedSequence([self._root_entropy, index])
        return int(sequence.generate_state(1, np.uint64)[0])

    def _try_static(
        self, program: Program, config: RunConfig
    ) -> "DebugReport | None":
        """Rung 2: answer a fully statically decidable job inline."""
        if not config.static_preflight:
            return None
        try:
            checker = StatisticalAssertionChecker(program, config)
            return checker.try_static_report()
        except Exception:
            # Static analysis must never take a submission down; the job
            # simply proceeds to a worker.
            return None

    # -- execution -------------------------------------------------------

    def _slot_loop(self) -> None:
        """One slot thread: run queued jobs, one at a time, until close."""
        while True:
            job = self.queue.get()
            if job is None:  # the queue was closed
                return
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        try:
            policy = RetryPolicy(
                max_retries=job.config.max_retries,
                backoff_base=job.config.backoff_base,
            )
            crashes = 0
            while True:
                # One lock hold for the check and the state change: a cancel
                # that finishes a still-QUEUED job must not be overwritten.
                with self._lock:
                    if job._cancelled:
                        # Cancelled while queued (already CANCELLED) or
                        # during a retry's backoff.
                        self._finish(job, JobState.CANCELLED, None)
                        return
                    attempt = job.attempts
                    job.state = JobState.RUNNING
                    job.attempts += 1
                outcome = run_attempt(
                    {
                        "program_bytes": job._program_bytes,
                        "config_json": job._config_json,
                        "job_index": job.index,
                        "attempt": attempt,
                        "fault_spec": self.fault_injector.spell(),
                    },
                    timeout=job.config.job_timeout,
                    is_cancelled=lambda: job._cancelled,
                    pool=self._pool,
                )
                if outcome.status == "cancelled":
                    # Client withdrew the job mid-attempt: the worker was
                    # killed and — like TIMEOUT — there is no retry.
                    job.failure_chain.append(
                        {
                            "attempt": attempt,
                            "kind": "cancelled",
                            "detail": outcome.detail,
                            "exitcode": outcome.exitcode,
                            "duration": outcome.duration,
                            "backoff": None,
                        }
                    )
                    self._finish(job, JobState.CANCELLED, None)
                    return
                if outcome.status == "ok":
                    self.result_cache.put(job.cache_key, outcome.report_json)
                    self._finish(job, JobState.DONE, outcome.report_json)
                    return
                failure = {
                    "attempt": attempt,
                    "kind": outcome.status,
                    "detail": outcome.detail,
                    "exitcode": outcome.exitcode,
                    "duration": outcome.duration,
                    "backoff": None,
                }
                if outcome.status == "timeout":
                    # A hung job gets no retry: re-running a computation
                    # that exceeded its wall-clock budget would just burn
                    # another budget.  Structured TIMEOUT, client unblocked.
                    job.failure_chain.append(failure)
                    self._finish(job, JobState.TIMEOUT, None)
                    return
                if outcome.status == "error":
                    # The worker *reported* the exception: deterministic
                    # program/config problem, retrying cannot help.
                    job.failure_chain.append(failure)
                    self._finish(job, JobState.FAILED, None)
                    return
                # crash: SIGKILL / OOM / abnormal exit — retry with backoff.
                crashes += 1
                if not policy.retries_left(crashes):
                    job.failure_chain.append(failure)
                    self._finish(job, JobState.FAILED, None)
                    return
                backoff = policy.delay(crashes - 1, seed=job.config.seed)
                failure["backoff"] = backoff
                job.failure_chain.append(failure)
                if backoff > 0.0:
                    time.sleep(backoff)
        except Exception as exc:  # pragma: no cover - defensive belt
            job.failure_chain.append(
                {
                    "attempt": job.attempts,
                    "kind": "internal",
                    "detail": f"{type(exc).__name__}: {exc}",
                    "exitcode": None,
                    "duration": 0.0,
                    "backoff": None,
                }
            )
            self._finish(job, JobState.FAILED, None)

    def _finish(self, job: Job, state: str, report_json: "str | None") -> None:
        with self._finished:
            # Dropped even from a job that is already terminal: a cancel
            # that beat the pickle in ``submit`` left its bytes.
            job._program_bytes = b""
            if job.terminal:
                # Already terminal (e.g. cancelled while the worker raced to
                # its own answer): first writer wins, never overwrite.
                return
            job.state = state
            job._report_json = report_json
            job.finished_at = time.time()
            job._config_json = ""
            self._finished.notify_all()

    # -- client surface --------------------------------------------------

    def job(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job id {job_id!r}")
        return job

    def jobs(self) -> "list[Job]":
        """Every job, in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def report(self, job_id: str) -> "DebugReport | None":
        """The finished report, or ``None`` while the job is in flight.

        Decoded afresh from the JSON the job keeps, so callers may change
        the returned report freely.  TIMEOUT, FAILED and CANCELLED jobs
        have none.
        """
        return self.job(job_id).report

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: withdraw it if QUEUED, kill its worker if RUNNING.

        A QUEUED job goes terminal (``CANCELLED``) immediately; a RUNNING
        job has its current attempt's subprocess killed and — like TIMEOUT —
        is never retried.  Cancelling an already-terminal job is a no-op
        (the job is returned unchanged), so cancellation is idempotent and
        can never race a completion into an error.
        """
        job = self.job(job_id)
        with self._lock:
            if not job.terminal:
                job._cancelled = True
                if job.state == JobState.QUEUED:
                    # The slot that pops it skips it; park the job terminal
                    # right away so clients unblock immediately.
                    self._finish(job, JobState.CANCELLED, None)
        return job

    def wait(self, job_id: str, timeout: "float | None" = None) -> Job:
        """Block until the job is terminal; the ``wait_for_job`` shape.

        Raises :class:`TimeoutError` if the *wait* times out — distinct
        from the job itself timing out, which returns normally with
        ``state == "TIMEOUT"``.
        """
        job = self.job(job_id)
        with self._finished:
            ended = self._finished.wait_for(lambda: job.terminal, timeout)
        if not ended:
            raise TimeoutError(
                f"job {job_id} not terminal after {timeout}s (state {job.state})"
            )
        return job

    def wait_all(
        self, job_ids: "list[str] | None" = None, timeout: "float | None" = None
    ) -> "list[Job]":
        """Wait for many jobs; overall deadline shared across them."""
        if job_ids is None:
            job_ids = [job.id for job in self.jobs()]
        deadline = None if timeout is None else time.monotonic() + timeout
        waited = []
        for job_id in job_ids:
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                raise TimeoutError(f"timed out before job {job_id}")
            waited.append(self.wait(job_id, timeout=remaining))
        return waited

    def stats(self) -> dict:
        """Service counters: per-state job counts, queue depth, cache."""
        with self._lock:
            states: "dict[str, int]" = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "jobs": len(self._jobs),
                "states": states,
                "queue_depth": len(self.queue),
                "max_workers": self.max_workers,
                "inline_answers": {
                    "cached": states.get(JobState.CACHED, 0),
                    "static": states.get(JobState.STATIC, 0),
                },
                "cache": self.result_cache.stats(),
                "faults": self.fault_injector.spell(),
            }

    # -- lifecycle -------------------------------------------------------

    def close(self, wait: bool = True, timeout: "float | None" = 30.0) -> None:
        """Stop accepting and starting jobs; optionally join the slots.

        Jobs still queued stay ``QUEUED`` (they were never started and are
        fully described by their payloads); a job mid-attempt runs to its
        next terminal state, and ``wait=True`` joins the slot threads after
        it.  Idle workers are retired here, and a worker still running an
        attempt when its attempt ends.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.queue.close()
        if wait:
            for thread in self._slots:
                thread.join(timeout)
        self._pool.close()

    def __enter__(self) -> "LocalService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalService(workers={self.max_workers}, "
            f"jobs={len(self._jobs)}, queue={len(self.queue)})"
        )
