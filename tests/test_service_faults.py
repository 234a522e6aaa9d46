"""Chaos engineering for the job service: crash/hang/slow/error injection.

Each test drives :class:`~repro.service.jobs.LocalService` (or the sharded
sweep) with a deterministic ``REPRO_FAULT_SPEC``-style fault schedule and
asserts the structured recovery the acceptance criteria demand: a SIGKILLed
worker is retried and the final report is byte-identical to an uninjected
seeded run; a hung job comes back ``TIMEOUT`` within its budget plus grace;
exhausted retries yield ``FAILED`` with the full failure chain.
"""

from __future__ import annotations

import time

import pytest

from repro import RunConfig, check_program
from repro.algorithms.bell import build_bell_program
from repro.service import (
    FaultInjector,
    FaultSpecError,
    InjectedFault,
    JobState,
    LocalService,
    RetryPolicy,
)
from repro.workloads.sharding import run_sharded_points, sweep_point_configs

SEED = 20190622
WAIT = 120.0

#: Fast backoff so retry tests don't sleep their way through CI.
CFG = RunConfig(ensemble_size=8, seed=SEED, backoff_base=0.01, max_retries=2)


def service(fault_spec, **kwargs):
    kwargs.setdefault("max_workers", 2)
    kwargs.setdefault("root_seed", SEED)
    return LocalService(fault_spec=fault_spec, **kwargs)


# ---------------------------------------------------------------------------
# Fault spec grammar
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_parse_spell_round_trip(self):
        spec = "crash@0; hang@2x3; slow@5:0.25; error@7"
        injector = FaultInjector.parse(spec)
        assert FaultInjector.parse(injector.spell()).spell() == injector.spell()
        kinds = {rule.index: rule.kind for rule in injector.rules}
        assert kinds == {0: "crash", 2: "hang", 5: "slow", 7: "error"}

    def test_empty_spec_is_falsy_and_inert(self):
        injector = FaultInjector.parse("")
        assert not injector
        injector.fire(0, 0)  # no rule, no effect

    def test_attempt_window(self):
        injector = FaultInjector.parse("error@1x2")
        with pytest.raises(InjectedFault):
            injector.fire(1, 0)
        with pytest.raises(InjectedFault):
            injector.fire(1, 1)
        injector.fire(1, 2)  # past the window: inert
        injector.fire(0, 0)  # other index: inert

    @pytest.mark.parametrize(
        "bad",
        [
            "explode@0",  # unknown kind
            "crash",  # missing index
            "crash@x",  # non-integer index
            "crash@-1",  # negative index
            "crash@0x0",  # empty attempt window
            "slow@0:fast",  # non-numeric param
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            FaultInjector.parse(bad)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_retries_left_counts_retries_not_attempts(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.retries_left(1) and policy.retries_left(2)
        assert not policy.retries_left(3)
        assert not RetryPolicy(max_retries=0).retries_left(1)

    def test_delay_exponential_with_bounded_jitter(self):
        policy = RetryPolicy(max_retries=8, backoff_base=0.1, jitter=0.5)
        for retry in range(4):
            base = 0.1 * 2**retry
            delay = policy.delay(retry, seed=SEED)
            assert base <= delay <= base * 1.5

    def test_delay_capped(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_cap=2.0, jitter=0.0)
        assert policy.delay(10) == pytest.approx(2.0)

    def test_delay_deterministic_per_seed(self):
        policy = RetryPolicy(backoff_base=0.1)
        assert policy.delay(1, seed=7) == policy.delay(1, seed=7)


# ---------------------------------------------------------------------------
# Service-level fault recovery (the acceptance criteria)
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_sigkilled_worker_retried_report_byte_identical(self):
        with service(fault_spec=None) as clean:
            baseline = clean.wait(
                clean.submit(build_bell_program(), CFG), timeout=WAIT
            )
        with service(fault_spec="crash@0") as svc:
            job = svc.wait(svc.submit(build_bell_program(), CFG), timeout=WAIT)
        assert job.state == JobState.DONE
        assert job.attempts == 2
        assert [entry["kind"] for entry in job.failure_chain] == ["crash"]
        assert job.failure_chain[0]["backoff"] > 0.0
        assert job.report.to_json() == baseline.report.to_json()

    def test_crash_every_attempt_exhausts_into_failed_with_chain(self):
        config = CFG.replace(max_retries=1)
        with service(fault_spec="crash@0x9") as svc:
            job = svc.wait(svc.submit(build_bell_program(), config), timeout=WAIT)
        assert job.state == JobState.FAILED
        assert job.attempts == 2  # first attempt + one retry
        assert [entry["kind"] for entry in job.failure_chain] == ["crash", "crash"]
        assert [entry["attempt"] for entry in job.failure_chain] == [0, 1]
        assert job.report is None

    def test_crash_does_not_poison_other_jobs(self):
        # Self-healing pool: the job after the crasher runs in its own fresh
        # subprocess and never notices.
        with service(fault_spec="crash@0x9", max_workers=1) as svc:
            doomed = svc.submit(build_bell_program(), CFG.replace(max_retries=0))
            healthy = svc.submit(build_bell_program(), CFG)
            jobs = svc.wait_all([doomed, healthy], timeout=WAIT)
        assert jobs[0].state == JobState.FAILED
        assert jobs[1].state == JobState.DONE


class TestTimeout:
    def test_hung_job_returns_timeout_within_budget_plus_grace(self):
        config = CFG.replace(job_timeout=0.5)
        with service(fault_spec="hang@0") as svc:
            start = time.monotonic()
            job = svc.wait(svc.submit(build_bell_program(), config), timeout=WAIT)
            elapsed = time.monotonic() - start
        assert job.state == JobState.TIMEOUT
        assert job.attempts == 1  # timeouts are not retried
        assert job.report is None
        entry = job.failure_chain[0]
        assert entry["kind"] == "timeout"
        assert entry["duration"] >= 0.5
        # job_timeout + SIGKILL/join grace + scheduling slack.
        assert elapsed < 0.5 + 10.0

    def test_healthy_job_unaffected_by_timeout_budget(self):
        config = CFG.replace(job_timeout=60.0)
        with service(fault_spec=None) as svc:
            job = svc.wait(svc.submit(build_bell_program(), config), timeout=WAIT)
        assert job.state == JobState.DONE


class TestDeterministicErrors:
    def test_worker_error_fails_fast_without_retries(self):
        with service(fault_spec="error@0x9") as svc:
            job = svc.wait(svc.submit(build_bell_program(), CFG), timeout=WAIT)
        assert job.state == JobState.FAILED
        assert job.attempts == 1  # deterministic: retrying cannot help
        entry = job.failure_chain[0]
        assert entry["kind"] == "error"
        assert "InjectedFault" in entry["detail"]

    def test_slow_start_just_finishes(self):
        with service(fault_spec="slow@0:0.2") as svc:
            job = svc.wait(svc.submit(build_bell_program(), CFG), timeout=WAIT)
        assert job.state == JobState.DONE
        assert job.attempts == 1


class TestMixedBatchUnderChaos:
    def test_every_job_reaches_a_terminal_state(self):
        spec = "crash@0; hang@1; error@2; slow@3:0.1"
        config = CFG.replace(job_timeout=1.0, max_retries=2)
        with service(fault_spec=spec, max_workers=2) as svc:
            ids = [svc.submit(build_bell_program(), config) for _ in range(6)]
            jobs = svc.wait_all(ids, timeout=WAIT)
        states = [job.state for job in jobs]
        assert states == [
            JobState.DONE,  # crash@0: retried to completion
            JobState.TIMEOUT,  # hang@1
            JobState.FAILED,  # error@2
            JobState.DONE,  # slow@3
            JobState.DONE,
            JobState.DONE,
        ]
        assert all(job.terminal for job in jobs)
        # Zero lost jobs: every submission is accounted for.
        assert svc.stats()["jobs"] == 6


# ---------------------------------------------------------------------------
# Sharded sweeps: worker crashes must not lose the sweep
# ---------------------------------------------------------------------------


def _sweep_points(num_points):
    configs = sweep_point_configs(
        CFG.replace(backoff_base=0.01), [{} for _ in range(num_points)]
    )
    return [(build_bell_program(), config) for config in configs]


class TestShardedCrashRecovery:
    def test_crashed_point_resubmitted_sweep_byte_identical(self, monkeypatch):
        points = _sweep_points(4)
        clean = run_sharded_points(points, max_workers=2)
        monkeypatch.setenv("REPRO_FAULT_SPEC", "crash@1")
        recovered = run_sharded_points(points, max_workers=2)
        assert [r.to_json() for r in recovered] == [r.to_json() for r in clean]

    def test_exhausted_crashes_raise_naming_lost_points(self, monkeypatch):
        points = [
            (program, config.replace(max_retries=1))
            for program, config in _sweep_points(3)
        ]
        monkeypatch.setenv("REPRO_FAULT_SPEC", "crash@1x9")
        with pytest.raises(RuntimeError) as excinfo:
            run_sharded_points(points, max_workers=2)
        message = str(excinfo.value)
        assert message.startswith("sweep points [1] were lost")
        assert "point 1 FAILED after 2 attempt(s)" in message

    def test_hung_point_times_out_naming_it(self, monkeypatch):
        points = [
            (program, config.replace(job_timeout=0.5))
            for program, config in _sweep_points(2)
        ]
        monkeypatch.setenv("REPRO_FAULT_SPEC", "hang@1:5")
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=r"sweep points \[1\] .*TIMEOUT"):
            run_sharded_points(points, max_workers=2)
        assert time.monotonic() - start < 5.0

    def test_serial_path_ignores_fault_spec(self, monkeypatch):
        # The in-process path never consults the fault spec, so an injected
        # crash can never kill the parent.
        points = _sweep_points(2)
        clean = run_sharded_points(points, max_workers=1)
        monkeypatch.setenv("REPRO_FAULT_SPEC", "crash@0; crash@1")
        serial = run_sharded_points(points, max_workers=1)
        assert [r.to_json() for r in serial] == [r.to_json() for r in clean]

    def test_deterministic_worker_errors_still_propagate(self, monkeypatch):
        points = _sweep_points(2)
        monkeypatch.setenv("REPRO_FAULT_SPEC", "error@0x9")
        with pytest.raises(RuntimeError, match="InjectedFault"):
            run_sharded_points(points, max_workers=2)
