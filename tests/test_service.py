"""The job service: queue, result cache, lifecycle, degradation, HTTP.

Fault-injection recovery paths (crash/hang/slow/error and the sharded-sweep
chaos contract) live in ``test_service_faults.py``; this file covers the
sunny-day service semantics and the degradation ladder.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import RunConfig, check_program
from repro.algorithms.bell import build_bell_program, build_ghz_program
from repro.lang.qasm import to_qasm
from repro.service import (
    JobState,
    LocalService,
    PriorityJobQueue,
    ResultCache,
    serve_http,
)
from repro.service.queue import QueueClosed

SEED = 20190622
WAIT = 60.0  # generous terminal-state deadline; loaded CI boxes are slow

CFG = RunConfig(ensemble_size=8, seed=SEED, backoff_base=0.01)


def service(**kwargs):
    kwargs.setdefault("max_workers", 2)
    kwargs.setdefault("root_seed", SEED)
    return LocalService(**kwargs)


# ---------------------------------------------------------------------------
# PriorityJobQueue
# ---------------------------------------------------------------------------


class TestPriorityJobQueue:
    def test_higher_priority_first_fifo_within(self):
        queue = PriorityJobQueue()
        queue.put("low-a", priority=0)
        queue.put("high", priority=5)
        queue.put("low-b", priority=0)
        assert [queue.get(0.1) for _ in range(3)] == ["high", "low-a", "low-b"]

    def test_get_timeout_returns_none(self):
        queue = PriorityJobQueue()
        start = time.monotonic()
        assert queue.get(timeout=0.05) is None
        assert time.monotonic() - start < 5.0

    def test_close_refuses_put_and_unblocks_get(self):
        queue = PriorityJobQueue()
        got = []
        waiter = threading.Thread(target=lambda: got.append(queue.get(10.0)))
        waiter.start()
        queue.close()
        waiter.join(5.0)
        assert not waiter.is_alive() and got == [None]
        with pytest.raises(QueueClosed):
            queue.put("x")

    def test_drain_returns_scheduling_order(self):
        queue = PriorityJobQueue()
        queue.put("b", priority=1)
        queue.put("a", priority=3)
        queue.put("c", priority=1)
        assert queue.drain() == ["a", "b", "c"]
        assert len(queue) == 0

    def test_len(self):
        queue = PriorityJobQueue()
        assert len(queue) == 0
        queue.put("x")
        assert len(queue) == 1


# ---------------------------------------------------------------------------
# ResultCache
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_key_stable_across_gate_spelling(self):
        import numpy as np

        from repro.lang.program import Program

        def build(spelling):
            program = Program("spell")
            q = program.qreg("q", 1)
            program.h(q[0])
            if spelling == "s":
                program.s(q[0])
            else:
                program.rz(q[0], np.pi / 2)
            program.assert_superposition([q[0]], label="sup")
            return program

        key_s = ResultCache.key_for(build("s"), CFG)
        key_rz = ResultCache.key_for(build("rz"), CFG)
        assert key_s == key_rz

    def test_key_differs_on_config(self):
        program = build_bell_program()
        assert ResultCache.key_for(program, CFG) != ResultCache.key_for(
            program, CFG.replace(seed=SEED + 1)
        )
        assert ResultCache.key_for(program, CFG) != ResultCache.key_for(
            program, CFG.replace(ensemble_size=16)
        )

    def test_lru_eviction_and_counters(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", "1")
        cache.put("b", "2")
        assert cache.get("a") == "1"  # refresh a
        cache.put("c", "3")  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == "1" and cache.get("c") == "3"
        assert len(cache) == 2
        stats = cache.stats()
        assert stats["hits"] == 3 and stats["misses"] == 1

    def test_thread_hammer_consistent(self):
        cache = ResultCache(max_entries=8)
        errors = []

        def hammer(worker):
            try:
                for i in range(200):
                    key = f"k{(worker * 7 + i) % 16}"
                    if cache.get(key) is None:
                        cache.put(key, f"v-{key}")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors
        assert len(cache) <= 8
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 200


# ---------------------------------------------------------------------------
# Job lifecycle
# ---------------------------------------------------------------------------


class TestJobLifecycle:
    def test_submit_returns_immediately_and_done_report_matches_direct(self):
        with service() as svc:
            job_id = svc.submit(build_bell_program(), CFG)
            job = svc.wait(job_id, timeout=WAIT)
            assert job.state == JobState.DONE
            assert job.attempts == 1 and job.failure_chain == []
            expected = check_program(build_bell_program(), CFG)
            assert job.report.to_json() == expected.to_json()

    def test_qasm_submission(self):
        with service() as svc:
            job = svc.wait(
                svc.submit(to_qasm(build_bell_program()), CFG), timeout=WAIT
            )
            assert job.state == JobState.DONE
            assert job.report.num_breakpoints == 1

    def test_wire_payload_submission(self):
        payload = json.dumps(
            {
                "program": to_qasm(build_bell_program()),
                "config": CFG.to_dict(),
                "priority": 2,
            }
        )
        with service() as svc:
            job = svc.wait(svc.submit_payload(payload), timeout=WAIT)
            assert job.priority == 2 and job.state == JobState.DONE

    def test_unknown_job_id_raises(self):
        with service() as svc:
            with pytest.raises(KeyError):
                svc.job("job-999999")

    def test_bad_program_type_raises_at_submit(self):
        with service() as svc:
            with pytest.raises(TypeError):
                svc.submit(12345, CFG)

    def test_bad_config_raises_at_submit(self):
        with service() as svc:
            with pytest.raises(ValueError):
                svc.submit(build_bell_program(), {"ensemble_sise": 8})

    def test_instance_backend_rejected_at_submit(self):
        from repro.sim.backend import StatevectorBackend

        with service() as svc:
            with pytest.raises(TypeError):
                svc.submit(
                    build_bell_program(),
                    CFG.replace(backend=StatevectorBackend()),
                )

    def test_submit_after_close_raises(self):
        svc = service()
        svc.close()
        with pytest.raises(RuntimeError):
            svc.submit(build_bell_program(), CFG)

    def test_wait_timeout_raises_timeout_error(self):
        # Pool fully down: the job can never finish, so the *wait* times out
        # (distinct from the job's own TIMEOUT state).
        with service(max_workers=0) as svc:
            job_id = svc.submit(build_bell_program(), CFG)
            with pytest.raises(TimeoutError):
                svc.wait(job_id, timeout=0.1)
            assert svc.job(job_id).state == JobState.QUEUED

    def test_wait_all_and_jobs_order(self):
        with service() as svc:
            ids = [
                svc.submit(build_bell_program(), CFG.replace(seed=SEED + i))
                for i in range(3)
            ]
            jobs = svc.wait_all(ids, timeout=WAIT)
            assert [job.state for job in jobs] == [JobState.DONE] * 3
            assert [job.id for job in svc.jobs()] == ids

    def test_job_to_dict_is_json_native(self):
        with service() as svc:
            job = svc.wait(svc.submit(build_bell_program(), CFG), timeout=WAIT)
            payload = json.loads(json.dumps(job.to_dict()))
            assert payload["state"] == "DONE"
            assert payload["terminal"] is True
            assert payload["report"]["records"]


class TestSeedDiscipline:
    def test_unseeded_jobs_get_scheduling_independent_seeds(self):
        # Two services with the same root seed assign the same per-job
        # seeds by submission index — results depend on submission order,
        # never on worker scheduling.
        with service(max_workers=1) as first, service(max_workers=2) as second:
            unseeded = CFG.replace(seed=None)
            ids_a = [first.submit(build_bell_program(), unseeded) for _ in range(3)]
            ids_b = [second.submit(build_bell_program(), unseeded) for _ in range(3)]
            jobs_a = first.wait_all(ids_a, timeout=WAIT)
            jobs_b = second.wait_all(ids_b, timeout=WAIT)
        for job_a, job_b in zip(jobs_a, jobs_b):
            assert job_a.config.seed == job_b.config.seed
            assert job_a.report.to_json() == job_b.report.to_json()
        # ...and distinct indices pin distinct streams.
        assert len({job.config.seed for job in jobs_a}) == 3

    def test_explicit_seed_kept(self):
        with service() as svc:
            job = svc.wait(svc.submit(build_bell_program(), CFG), timeout=WAIT)
            assert job.config.seed == SEED


# ---------------------------------------------------------------------------
# Degradation ladder: CACHED and STATIC answer without a worker
# ---------------------------------------------------------------------------


class TestDegradation:
    def test_repeat_job_served_cached_byte_identical(self):
        with service() as svc:
            first = svc.wait(svc.submit(build_bell_program(), CFG), timeout=WAIT)
            second = svc.wait(svc.submit(build_bell_program(), CFG), timeout=WAIT)
            assert first.state == JobState.DONE
            assert second.state == JobState.CACHED
            assert second.attempts == 0
            assert second.report.to_json() == first.report.to_json()
            assert svc.stats()["inline_answers"]["cached"] == 1

    def test_cached_jobs_complete_with_pool_down(self):
        with service() as warm:
            job = warm.wait(warm.submit(build_bell_program(), CFG), timeout=WAIT)
            warm_json = job.report.to_json()
            cache = warm.result_cache
        # A fresh service with zero workers but the warm cache: repeat
        # traffic still completes.
        svc = service(max_workers=0)
        svc.result_cache = cache
        try:
            job_id = svc.submit(build_bell_program(), CFG)
            job = svc.job(job_id)
            assert job.state == JobState.CACHED
            assert job.report.to_json() == warm_json
        finally:
            svc.close()

    def test_static_decidable_answered_inline_with_pool_down(self):
        config = CFG.replace(static_preflight=True)
        with service(max_workers=0) as svc:
            job_id = svc.submit(build_ghz_program(3), config)
            job = svc.job(job_id)
            assert job.state == JobState.STATIC
            assert job.attempts == 0
            assert job.report.num_static == job.report.num_breakpoints == 2
            assert job.report.passed

    def test_static_matches_worker_path_verdicts(self):
        config = CFG.replace(static_preflight=True)
        with service() as svc:
            static_job = svc.job(svc.submit(build_ghz_program(3), config))
            # Big enough ensemble that the sampled verdicts are not a coin
            # flip of the small-sample exact test.
            sampled = check_program(
                build_ghz_program(3), CFG.replace(ensemble_size=64)
            )
        assert static_job.state == JobState.STATIC
        assert [r.passed for r in static_job.report.records] == [
            r.passed for r in sampled.records
        ]

    def test_converging_job_skips_static_rung_and_matches_check_program(self):
        # check_program runs run_until_converged for converge=True, which
        # never short-circuits statically; the inline STATIC rung must not
        # answer such a job with a different report.
        from repro.workloads.clifford import get_clifford_scenario

        program = get_clifford_scenario("ghz_broken_link").build_correct(8)
        config = RunConfig(
            ensemble_size=8, seed=3, static_preflight=True, converge=True,
            backend="stabilizer",
        )
        direct = check_program(program, config)
        assert [r.method for r in direct.records] == ["sampled", "sampled"]
        assert len(direct.convergence) == 2
        with service() as svc:
            job = svc.wait(svc.submit(program, config), timeout=WAIT)
        assert job.state == JobState.DONE
        assert job.report.to_json() == direct.to_json()

    def test_undecidable_job_goes_to_worker(self):
        # A non-Clifford program is not fully decidable: static_preflight
        # must not short-circuit it, so it runs on a worker.
        import numpy as np

        from repro.lang.program import Program

        program = Program("tgate")
        q = program.qreg("q", 2)
        program.h(q[0])
        program.rz(q[0], np.pi / 4)
        program.cnot(q[0], q[1])
        program.assert_entangled([q[0]], [q[1]], label="ent")
        with service() as svc:
            job = svc.wait(
                svc.submit(program, CFG.replace(static_preflight=True)),
                timeout=WAIT,
            )
            assert job.state == JobState.DONE
            assert job.attempts == 1


# ---------------------------------------------------------------------------
# HTTP front
# ---------------------------------------------------------------------------


def _get_json(url):
    with urllib.request.urlopen(url) as resp:
        return resp.status, json.load(resp)


class TestHTTP:
    @pytest.fixture()
    def server(self):
        with service() as svc, serve_http(svc) as server:
            yield server

    def _submit(self, server, config=CFG, priority=0):
        payload = json.dumps(
            {
                "program": to_qasm(build_bell_program()),
                "config": config.to_dict(),
                "priority": priority,
            }
        ).encode()
        request = urllib.request.Request(
            server.url + "/jobs", data=payload, method="POST"
        )
        with urllib.request.urlopen(request) as resp:
            assert resp.status == 202
            return json.load(resp)["job_id"]

    def test_submit_wait_report_roundtrip(self, server):
        job_id = self._submit(server)
        status, body = _get_json(server.url + f"/jobs/{job_id}/wait?timeout=60")
        assert status == 200 and body["state"] == "DONE"
        status, report = _get_json(server.url + f"/jobs/{job_id}/report")
        assert status == 200
        # The QASM import renames the program (and drops assertion labels),
        # so compare the verdict-bearing payload, not the cosmetic names.
        expected = check_program(build_bell_program(), CFG).to_dict()
        assert report["passed"] == expected["passed"]
        assert len(report["records"]) == len(expected["records"])
        for got, want in zip(report["records"], expected["records"]):
            for key in ("passed", "p_value", "assertion_type", "details"):
                assert got["outcome"][key] == want["outcome"][key]

    def test_status_endpoint(self, server):
        job_id = self._submit(server)
        status, body = _get_json(server.url + f"/jobs/{job_id}")
        assert status == 200
        assert body["id"] == job_id
        assert body["state"] in {"QUEUED", "RUNNING", "DONE"}

    def test_report_conflict_while_in_flight(self):
        with service(max_workers=0) as svc, serve_http(svc) as server:
            job_id = svc.submit(build_bell_program(), CFG)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url + f"/jobs/{job_id}/report")
            assert excinfo.value.code == 409
            assert json.load(excinfo.value)["state"] == "QUEUED"

    def test_unknown_job_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/jobs/job-404404")
        assert excinfo.value.code == 404

    def test_bad_payload_400(self, server):
        request = urllib.request.Request(
            server.url + "/jobs", data=b'{"nope": 1}', method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_stats_endpoint(self, server):
        job_id = self._submit(server)
        _get_json(server.url + f"/jobs/{job_id}/wait?timeout=60")
        status, body = _get_json(server.url + "/stats")
        assert status == 200
        assert body["jobs"] >= 1 and "states" in body


# ---------------------------------------------------------------------------
# RunConfig service knobs
# ---------------------------------------------------------------------------


class TestServiceConfigKnobs:
    def test_defaults(self):
        config = RunConfig()
        assert config.job_timeout is None
        assert config.max_retries == 2
        assert config.backoff_base == pytest.approx(0.05)
        assert config.max_seconds is None

    @pytest.mark.parametrize(
        "bad",
        [
            {"job_timeout": 0.0},
            {"job_timeout": -1.0},
            {"max_retries": -1},
            {"backoff_base": -0.5},
            {"max_seconds": 0.0},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            RunConfig(**bad)

    def test_json_round_trip(self):
        config = RunConfig(
            seed=SEED,
            job_timeout=1.5,
            max_retries=4,
            backoff_base=0.25,
            max_seconds=30.0,
        )
        restored = RunConfig.from_json(config.to_json())
        assert restored == config
        assert restored.to_dict() == config.to_dict()


# ---------------------------------------------------------------------------
# run_until_converged wall-clock guard (RunConfig.max_seconds)
# ---------------------------------------------------------------------------


class TestMaxSecondsGuard:
    def _noisy_config(self, **overrides):
        from repro.sim.noise import depolarizing

        base = dict(
            ensemble_size=8,
            seed=SEED,
            backend="trajectory",
            noise=depolarizing(0.02),
            converge=True,
            se_cutoff=1e-6,  # unreachable: never converges on its own
            max_batches=64,
        )
        base.update(overrides)
        return RunConfig(**base)

    def test_expiry_returns_partial_report_flagged_timeout(self):
        report = check_program(build_bell_program(), self._noisy_config(max_seconds=1e-6))
        assert report.convergence
        for row in report.convergence:
            assert row["converged"] is False
            assert row["reason"] == "timeout"
            assert row["batches"] < 64
        # The partial report still carries evaluated assertions.
        assert report.num_breakpoints == 1

    def test_at_least_one_batch_always_runs(self):
        report = check_program(build_bell_program(), self._noisy_config(max_seconds=1e-9))
        assert all(row["batches"] >= 1 for row in report.convergence)
        assert all(row["num_samples"] >= 8 for row in report.convergence)

    def test_unbounded_run_reports_max_batches_reason(self):
        report = check_program(
            build_bell_program(), self._noisy_config(max_batches=2)
        )
        assert [row["reason"] for row in report.convergence] == ["max_batches"]

    def test_converged_run_reports_converged_reason(self):
        report = check_program(
            build_bell_program(),
            self._noisy_config(se_cutoff=0.49, max_seconds=60.0),
        )
        assert all(row["reason"] == "converged" for row in report.convergence)
        assert all(row["converged"] for row in report.convergence)

    def test_reason_survives_report_round_trip(self):
        from repro.core.report import DebugReport

        report = check_program(build_bell_program(), self._noisy_config(max_seconds=1e-6))
        restored = DebugReport.from_json(report.to_json())
        assert restored.convergence == report.convergence


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------


class TestCancel:
    """``LocalService.cancel`` / ``DELETE /jobs/<id>``: withdraw or kill."""

    def test_cancel_queued_job(self):
        with service(max_workers=0) as svc:
            job_id = svc.submit(build_bell_program(), CFG)
            job = svc.cancel(job_id)
            assert job.state == JobState.CANCELLED and job.terminal
            assert job.report is None and job.attempts == 0
            assert svc.wait(job_id, timeout=WAIT).state == JobState.CANCELLED

    def test_cancel_is_idempotent(self):
        with service(max_workers=0) as svc:
            job_id = svc.submit(build_bell_program(), CFG)
            first = svc.cancel(job_id)
            second = svc.cancel(job_id)
            assert first is second and second.state == JobState.CANCELLED

    def test_cancel_after_terminal_is_a_noop(self):
        with service() as svc:
            job_id = svc.submit(build_bell_program(), CFG)
            done = svc.wait(job_id, timeout=WAIT)
            assert done.terminal
            cancelled = svc.cancel(job_id)
            assert cancelled.state == done.state
            assert cancelled.report is not None

    def test_cancel_running_job_kills_worker_without_retry(self):
        with service(fault_spec="hang@0x9", max_workers=1) as svc:
            job_id = svc.submit(build_bell_program(), CFG)
            deadline = time.monotonic() + WAIT
            while svc.job(job_id).state != JobState.RUNNING:
                assert time.monotonic() < deadline, "job never started running"
                time.sleep(0.01)
            svc.cancel(job_id)
            job = svc.wait(job_id, timeout=WAIT)
            assert job.state == JobState.CANCELLED
            assert job.attempts == 1  # cancellation is terminal: no retry
            assert [e["kind"] for e in job.failure_chain] == ["cancelled"]

    def test_cancel_unknown_job_raises(self):
        with service() as svc:
            with pytest.raises(KeyError):
                svc.cancel("job-404404")

    def test_http_delete_cancels_and_is_idempotent(self):
        with service(max_workers=0) as svc, serve_http(svc) as server:
            job_id = svc.submit(build_bell_program(), CFG)
            body = None
            for _ in range(2):
                request = urllib.request.Request(
                    server.url + f"/jobs/{job_id}", method="DELETE"
                )
                with urllib.request.urlopen(request) as resp:
                    assert resp.status == 200
                    body = json.load(resp)
            assert body["state"] == "CANCELLED"
            assert svc.job(job_id).terminal

    def test_http_delete_unknown_job_404(self):
        with service() as svc, serve_http(svc) as server:
            request = urllib.request.Request(
                server.url + "/jobs/job-404404", method="DELETE"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 404
