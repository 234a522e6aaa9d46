"""`repro.service` — fault-tolerant debugging-as-a-service.

Submit ``{"config": <RunConfig JSON>, "program": <QASM>}``, get a job id
immediately, poll or wait for the :class:`~repro.core.report.DebugReport`::

    from repro.service import LocalService

    with LocalService(max_workers=4, root_seed=7) as svc:
        job_id = svc.submit(program, RunConfig(ensemble_size=16))
        job = svc.wait(job_id)
        assert job.state == "DONE" and job.report.passed

Behind it: a priority queue feeding reusable subprocess workers (forked
once, retired after a fault or a fixed number of attempts) with per-job
``SeedSequence``-derived seeds, per-job wall-clock timeouts (SIGKILL →
``TIMEOUT``), retry with exponential backoff for crashed workers, a
content-addressed result cache, inline static-analyzer answers, a
deterministic fault-injection harness (``REPRO_FAULT_SPEC``), and a stdlib
HTTP front (:func:`serve_http`).  See ``docs/architecture.md`` → "Job
service".

The package imports lazily so that lower layers (``repro.workloads``
runs sharded sweep points as :class:`LocalService` jobs) can import
individual submodules without pulling the whole service stack.
"""

from __future__ import annotations

__all__ = [
    "LocalService",
    "ServiceClosed",
    "Job",
    "JobState",
    "RetryPolicy",
    "FaultInjector",
    "FaultRule",
    "FaultSpecError",
    "InjectedFault",
    "FAULT_SPEC_ENV",
    "PriorityJobQueue",
    "ResultCache",
    "ServiceServer",
    "serve_http",
]

_EXPORTS = {
    "LocalService": ("jobs", "LocalService"),
    "ServiceClosed": ("jobs", "ServiceClosed"),
    "Job": ("jobs", "Job"),
    "JobState": ("jobs", "JobState"),
    "RetryPolicy": ("workers", "RetryPolicy"),
    "FaultInjector": ("faults", "FaultInjector"),
    "FaultRule": ("faults", "FaultRule"),
    "FaultSpecError": ("faults", "FaultSpecError"),
    "InjectedFault": ("faults", "InjectedFault"),
    "FAULT_SPEC_ENV": ("faults", "FAULT_SPEC_ENV"),
    "PriorityJobQueue": ("queue", "PriorityJobQueue"),
    "ResultCache": ("result_cache", "ResultCache"),
    "ServiceServer": ("http", "ServiceServer"),
    "serve_http": ("http", "serve_http"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
