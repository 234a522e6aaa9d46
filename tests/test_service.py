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

    def test_closed_queue_keeps_its_items(self):
        queue = PriorityJobQueue()
        queue.put("left")
        queue.close()
        assert queue.get(0.1) is None
        assert len(queue) == 1

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

    def test_cancel_between_dequeue_and_first_attempt_stays_cancelled(
        self, monkeypatch
    ):
        """A cancel landing just before the slot thread marks the job RUNNING.

        The service lock is wrapped so that the slot thread's first entry
        cancels the (still QUEUED) job it popped first — the window between
        the pop and the first attempt.  The cancel must win: the job stays
        CANCELLED with no attempt, and nothing rewrites it afterwards.
        """
        log = _recording_attempts(monkeypatch)
        fired = []
        with service(max_workers=1) as svc:
            lock = svc._lock

            class CancelOnSlotThreadEntry:
                def __enter__(self):
                    name = threading.current_thread().name
                    if not fired and name.startswith("repro-service-slot-"):
                        fired.append(name)
                        (popped,) = svc.jobs()
                        svc.cancel(popped.id)
                    return lock.__enter__()

                def __exit__(self, *exc_info):
                    return lock.__exit__(*exc_info)

            svc._lock = CancelOnSlotThreadEntry()
            job_id = svc.submit(build_bell_program(), CFG)
            job = svc.wait(job_id, timeout=WAIT)
            state_at_wait = job.state
        # Leaving the block closed the service, which joins the slot thread
        # once it is done with the job.
        deadline = time.monotonic() + WAIT
        while any(thread.is_alive() for thread in svc._slots):
            assert time.monotonic() < deadline, "job thread never exited"
            time.sleep(0.01)
        assert fired == ["repro-service-slot-0"]
        assert state_at_wait == job.state == JobState.CANCELLED
        assert job.terminal and job.attempts == 0 and job.report is None
        assert log == []  # no worker attempt ran

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


# ---------------------------------------------------------------------------
# Slot threads: one per worker slot, none per job
# ---------------------------------------------------------------------------


def _wait_until_running(svc, job_id):
    deadline = time.monotonic() + WAIT
    while svc.job(job_id).state != JobState.RUNNING:
        assert time.monotonic() < deadline, "job never started running"
        time.sleep(0.01)


class TestSlotThreads:
    def test_priority_job_sent_later_runs_before_a_waiting_one(self):
        with service(max_workers=1, fault_spec="slow@0:0.5") as svc:
            first = svc.submit(build_bell_program(), CFG)
            _wait_until_running(svc, first)
            low = svc.submit(build_bell_program(), CFG.replace(seed=SEED + 1))
            time.sleep(0.1)
            high = svc.submit(
                build_bell_program(), CFG.replace(seed=SEED + 2), priority=5
            )
            jobs = svc.wait_all([first, low, high], timeout=WAIT)
        assert [job.state for job in jobs] == [JobState.DONE] * 3
        _, low_job, high_job = jobs
        assert high_job.finished_at < low_job.finished_at

    def test_many_waiters_on_one_job_all_return(self):
        with service(max_workers=1, fault_spec="slow@0:0.3") as svc:
            job_id = svc.submit(build_bell_program(), CFG)
            returned = []
            waiters = [
                threading.Thread(
                    target=lambda: returned.append(svc.wait(job_id, timeout=WAIT))
                )
                for _ in range(8)
            ]
            for thread in waiters:
                thread.start()
            for thread in waiters:
                thread.join(WAIT)
        assert not any(thread.is_alive() for thread in waiters)
        assert len(returned) == 8
        assert all(job is svc.job(job_id) for job in returned)
        assert returned[0].state == JobState.DONE

    def test_one_thread_per_slot_and_none_left_after_close(self):
        before = set(threading.enumerate())
        svc = service(max_workers=3, fault_spec="slow@0:0.3")
        ids = [
            svc.submit(build_bell_program(), CFG.replace(seed=SEED + offset))
            for offset in range(6)
        ]
        _wait_until_running(svc, ids[0])
        started = set(threading.enumerate()) - before
        assert started == set(svc._slots)
        assert sorted(thread.name for thread in started) == [
            f"repro-service-slot-{slot}" for slot in range(3)
        ]
        svc.wait_all(ids, timeout=WAIT)
        assert set(threading.enumerate()) - before == started
        svc.close()
        assert not any(thread.is_alive() for thread in started)
        assert not any(
            thread.name.startswith("repro-service-slot-")
            for thread in set(threading.enumerate()) - before
        )

    def test_finished_jobs_hold_no_threading_object(self):
        with service() as svc:
            done = svc.wait(svc.submit(build_bell_program(), CFG), timeout=WAIT)
            cached = svc.job(svc.submit(build_bell_program(), CFG))
            static = svc.job(
                svc.submit(build_ghz_program(3), CFG.replace(static_preflight=True))
            )
        assert (done.state, cached.state, static.state) == (
            JobState.DONE, JobState.CACHED, JobState.STATIC
        )
        for job in (done, cached, static):
            modules = {type(value).__module__ for value in vars(job).values()}
            assert not modules & {"threading", "_thread"}, modules


# ---------------------------------------------------------------------------
# Finished jobs hold no program
# ---------------------------------------------------------------------------


_JOB_VIEW_KEYS = {
    "id", "index", "state", "priority", "attempts", "program_name",
    "terminal", "failure_chain", "submitted_at", "finished_at", "report",
}


class TestFinishedJobsHoldNoProgram:
    @staticmethod
    def _assert_holds_no_program(job, name):
        from repro.lang.program import Program

        assert not hasattr(job, "program")
        assert job._program_bytes == b""
        assert not any(isinstance(value, Program) for value in vars(job).values())
        view = job.to_dict()
        assert set(view) == _JOB_VIEW_KEYS
        assert view["program_name"] == name
        assert view["report"] == job.report.to_dict()

    def test_done_cached_and_static_jobs(self, monkeypatch):
        import types

        import repro.service.jobs as jobs_module

        with service() as svc:
            done = svc.wait(svc.submit(build_bell_program(), CFG), timeout=WAIT)
            pickles = []
            monkeypatch.setattr(
                jobs_module, "pickle",
                types.SimpleNamespace(dumps=lambda obj: pickles.append(obj)),
            )
            cached = svc.job(svc.submit(build_bell_program(), CFG))
            static = svc.job(
                svc.submit(build_ghz_program(3), CFG.replace(static_preflight=True))
            )
        assert (done.state, cached.state, static.state) == (
            JobState.DONE, JobState.CACHED, JobState.STATIC
        )
        assert pickles == []  # the inline rungs never pickle the program
        self._assert_holds_no_program(done, "bell")
        self._assert_holds_no_program(cached, "bell")
        self._assert_holds_no_program(static, "ghz3")

    def test_queued_job_holds_its_pickle_until_cancelled(self):
        with service(max_workers=0) as svc:
            job = svc.job(svc.submit(build_bell_program(), CFG))
            assert job.state == JobState.QUEUED and job._program_bytes
            svc.cancel(job.id)
            assert job._program_bytes == b""


# ---------------------------------------------------------------------------
# Finished jobs keep their report as JSON
# ---------------------------------------------------------------------------


def _recording_attempts(monkeypatch):
    """Patch the service's ``run_attempt``; returns its (payload, outcome) log."""
    import repro.service.jobs as jobs_module

    log = []
    real = jobs_module.run_attempt

    def recorded(payload, *args, **kwargs):
        outcome = real(payload, *args, **kwargs)
        log.append((dict(payload), outcome))
        return outcome

    monkeypatch.setattr(jobs_module, "run_attempt", recorded)
    return log


def _static_report(program, config):
    from repro.core.checker import StatisticalAssertionChecker

    return StatisticalAssertionChecker(program, config).try_static_report()


class TestFinishedJobsKeepReportJson:
    STATIC_CFG = CFG.replace(static_preflight=True)

    @staticmethod
    def _assert_compact(job):
        from repro.core.report import DebugReport

        assert job._config_json == ""
        assert job._report_json
        assert not any(isinstance(value, DebugReport) for value in vars(job).values())

    def test_done_cached_and_static_jobs_hold_json_only(self, monkeypatch):
        attempts = _recording_attempts(monkeypatch)
        with service() as svc:
            done = svc.wait(svc.submit(build_bell_program(), CFG), timeout=WAIT)
            cached = svc.job(svc.submit(build_bell_program(), CFG))
            static = svc.job(svc.submit(build_ghz_program(3), self.STATIC_CFG))
            cache_entry = svc.result_cache.get(done.cache_key)
        assert (done.state, cached.state, static.state) == (
            JobState.DONE, JobState.CACHED, JobState.STATIC
        )
        for job in (done, cached, static):
            self._assert_compact(job)
        ((_, outcome),) = attempts
        # The worker's reply is kept as sent, and shared with the cache.
        assert done._report_json is outcome.report_json
        assert done.report.to_json() == outcome.report_json
        assert cached._report_json is cache_entry
        assert cached.report.to_json() == outcome.report_json
        expected = _static_report(build_ghz_program(3), static.config)
        assert static.report.to_json() == static._report_json == expected.to_json()

    def test_each_access_decodes_a_fresh_report(self):
        with service(max_workers=0) as svc:
            job = svc.job(svc.submit(build_ghz_program(3), self.STATIC_CFG))
            first = svc.report(job.id)
            first.records.clear()
            assert svc.report(job.id).num_breakpoints == 2
            assert job.report is not job.report

    def test_http_report_bodies_match_the_in_memory_reports(self):
        from repro.core.report import DebugReport

        with service() as svc, serve_http(svc) as server:
            done = svc.wait(svc.submit(build_bell_program(), CFG), timeout=WAIT)
            cached = svc.job(svc.submit(build_bell_program(), CFG))
            static = svc.job(svc.submit(build_ghz_program(3), self.STATIC_CFG))
            bodies = {}
            for job in (done, cached, static):
                with urllib.request.urlopen(
                    server.url + f"/jobs/{job.id}/report"
                ) as resp:
                    bodies[job.state] = resp.read()
        worker_report = DebugReport.from_json(done._report_json)
        static_report = _static_report(build_ghz_program(3), static.config)
        # The bodies the service sent when it kept report objects.
        assert bodies[JobState.DONE] == json.dumps(worker_report.to_dict()).encode()
        assert bodies[JobState.CACHED] == bodies[JobState.DONE]
        assert bodies[JobState.STATIC] == json.dumps(static_report.to_dict()).encode()

    def test_crash_retried_job_gets_its_config_on_every_attempt(self, monkeypatch):
        attempts = _recording_attempts(monkeypatch)
        with service(fault_spec="crash@0") as svc:
            job = svc.wait(svc.submit(build_bell_program(), CFG), timeout=WAIT)
        assert job.state == JobState.DONE and job.attempts == 2
        assert [outcome.status for _, outcome in attempts] == ["crash", "ok"]
        assert [payload["config_json"] for payload, _ in attempts] == [
            job.config.to_json()
        ] * 2
        self._assert_compact(job)
        assert job.report.to_json() == check_program(build_bell_program(), CFG).to_json()

    def test_jobs_without_a_report_report_none(self):
        with service(fault_spec="hang@0; error@1") as svc:
            timed_out = svc.wait(
                svc.submit(build_bell_program(), CFG.replace(job_timeout=0.5)),
                timeout=WAIT,
            )
            failed = svc.wait(svc.submit(build_bell_program(), CFG), timeout=WAIT)
        with service(max_workers=0) as svc:
            cancelled = svc.cancel(svc.submit(build_bell_program(), CFG))
            assert svc.report(cancelled.id) is None
        assert (timed_out.state, failed.state, cancelled.state) == (
            JobState.TIMEOUT, JobState.FAILED, JobState.CANCELLED
        )
        for job in (timed_out, failed, cancelled):
            assert job.report is None and job.to_dict()["report"] is None
            assert job._report_json is None and job._config_json == ""


# ---------------------------------------------------------------------------
# Parse memo: each distinct QASM text parsed once
# ---------------------------------------------------------------------------


def _counting_parser(monkeypatch):
    """Patch the service's ``from_qasm``; returns the texts it was sent."""
    import repro.service.jobs as jobs_module

    texts = []
    real = jobs_module.from_qasm

    def counted(text, *args, **kwargs):
        texts.append(text)
        return real(text, *args, **kwargs)

    monkeypatch.setattr(jobs_module, "from_qasm", counted)
    return texts


def _padded(text, total):
    """``text`` padded with comment lines to exactly ``total`` characters."""
    line = "// padding\n"
    filler = total - len(text)
    return text + line * (filler // len(line)) + " " * (filler % len(line))


class TestParseMemo:
    def test_resubmissions_under_new_seeds_parse_once(self, monkeypatch):
        texts = _counting_parser(monkeypatch)
        text = to_qasm(build_bell_program())
        with service() as svc:
            jobs = [
                svc.wait(svc.submit(text, CFG.replace(seed=SEED + k)), timeout=WAIT)
                for k in range(3)
            ]
        assert texts == [text]
        assert [job.state for job in jobs] == [JobState.DONE] * 3
        assert [job.program_name for job in jobs] == [f"job-{k}" for k in range(3)]

    def test_reports_equal_a_fresh_parse_under_the_job_name(self):
        from repro.lang.qasm import from_qasm

        text = to_qasm(build_ghz_program(3))
        configs = [
            CFG, CFG.replace(seed=SEED + 1), CFG,
            CFG.replace(seed=SEED + 2, static_preflight=True),
        ]
        with service() as svc:
            jobs = [svc.wait(svc.submit(text, config), timeout=WAIT) for config in configs]
        assert [job.state for job in jobs] == [
            JobState.DONE, JobState.DONE, JobState.CACHED, JobState.STATIC
        ]
        for job in jobs:
            if job.state == JobState.CACHED:
                # A cached answer is its source job's report, byte for byte.
                assert job.report.to_json() == jobs[0].report.to_json()
                continue
            program = from_qasm(text, name=f"job-{job.index}")
            assert job.report.to_json() == check_program(program, job.config).to_json()

    @pytest.mark.parametrize("line", ["rz(9**9**8) q[0];", "h q[0"])
    def test_bad_text_raises_on_every_submit(self, monkeypatch, line):
        from repro.lang.qasm import QasmError

        texts = _counting_parser(monkeypatch)
        text = to_qasm(build_bell_program()) + line + "\n"
        with service(max_workers=0) as svc:
            for _ in range(3):
                with pytest.raises(QasmError):
                    svc.submit(text, CFG)
            assert len(svc._parsed) == 0 and svc._parsed_chars == 0
            assert svc.jobs() == []
        assert texts == [text] * 3

    def test_memo_is_bounded_by_total_text_length(self, monkeypatch):
        import repro.service.jobs as jobs_module

        bound = jobs_module._PARSE_MEMO_CHARS
        texts = _counting_parser(monkeypatch)
        base = to_qasm(build_bell_program())
        oversized = _padded(base, bound + 1)
        with service(max_workers=0) as svc:
            svc.submit(oversized, CFG)
            svc.submit(oversized, CFG)
            assert texts == [oversized] * 2
            assert len(svc._parsed) == 0 and svc._parsed_chars == 0
            exact = _padded(base, bound)
            svc.submit(exact, CFG)
            assert list(svc._parsed) == [exact] and svc._parsed_chars == bound
            thirds = [_padded(f"// {k}\n" + base, bound // 3) for k in range(5)]
            for text in thirds:
                svc.submit(text, CFG)
                assert svc._parsed_chars == sum(map(len, svc._parsed)) <= bound
            # The bound-long text went first; the three latest thirds fit.
            assert list(svc._parsed) == thirds[2:]
            svc.submit(thirds[2], CFG)  # a hit refreshes its entry
            svc.submit(thirds[0], CFG)
            assert list(svc._parsed) == [thirds[4], thirds[2], thirds[0]]
        assert texts.count(thirds[2]) == 1 and texts.count(thirds[0]) == 2

    def test_concurrent_submitters_keep_the_memo_consistent(self):
        import pickle
        import sys

        import repro.service.jobs as jobs_module
        from repro.lang.qasm import from_qasm

        bound = jobs_module._PARSE_MEMO_CHARS
        base = to_qasm(build_ghz_program(3))
        # Six texts of a quarter bound each: entries keep being evicted.
        texts = [_padded(f"// {k}\n" + base, bound // 4) for k in range(6)]
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with service(max_workers=0) as svc:

                def submitter(offset):
                    try:
                        for step in range(12):
                            svc.submit(texts[(offset + step) % len(texts)], CFG)
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)

                threads = [
                    threading.Thread(target=submitter, args=(k,)) for k in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors
                assert svc._parsed_chars == sum(map(len, svc._parsed)) <= bound
                jobs = svc.jobs()
        finally:
            sys.setswitchinterval(interval)
        assert len(jobs) == 8 * 12
        expected = len(from_qasm(base).instructions)
        for job in jobs:
            program = pickle.loads(job._program_bytes)
            assert job.program_name == program.name == f"job-{job.index}"
            assert len(program.instructions) == expected

    def test_memoised_program_unchanged_by_done_cached_and_static_jobs(self):
        text = to_qasm(build_ghz_program(3))
        with service() as svc:
            first = svc.wait(svc.submit(text, CFG), timeout=WAIT)
            (memo,) = svc._parsed.values()
            instructions = memo.instructions
            before = (
                memo.name, instructions.fingerprint, len(instructions),
                list(instructions), list(memo.registers),
            )
            later = [
                svc.wait(svc.submit(text, config), timeout=WAIT)
                for config in (
                    CFG, CFG.replace(seed=SEED + 1), CFG.replace(static_preflight=True),
                )
            ]
            after = (
                memo.name, instructions.fingerprint, len(instructions),
                list(instructions), list(memo.registers),
            )
        assert [job.state for job in [first, *later]] == [
            JobState.DONE, JobState.CACHED, JobState.DONE, JobState.STATIC
        ]
        assert instructions.fingerprint is not None
        assert memo.instructions is instructions and after == before


# ---------------------------------------------------------------------------
# Worker lifecycle: forked once, reused, retired
# ---------------------------------------------------------------------------


def _worker_pids(before):
    """Pids of live child processes that were not alive at ``before``."""
    import multiprocessing

    return {proc.pid for proc in multiprocessing.active_children()} - before


def _live_pids():
    import multiprocessing

    return {proc.pid for proc in multiprocessing.active_children()}


class TestWorkerLifecycle:
    def _run(self, svc, program=None, config=CFG):
        job = svc.wait(
            svc.submit(program or build_bell_program(), config), timeout=WAIT
        )
        return job

    def test_sequential_jobs_reuse_one_worker(self):
        before = _live_pids()
        with service(max_workers=1) as svc:
            pids = []
            for offset in range(4):
                job = self._run(svc, config=CFG.replace(seed=SEED + offset))
                assert job.state == JobState.DONE and job.attempts == 1
                pids.append(_worker_pids(before))
        assert len(pids[0]) == 1 and all(found == pids[0] for found in pids)

    def test_job_after_a_crash_runs_on_a_fresh_worker(self):
        before = _live_pids()
        with service(fault_spec="crash@1x9", max_workers=1) as svc:
            self._run(svc, config=CFG.replace(seed=SEED + 1))
            first = _worker_pids(before)
            doomed = self._run(svc, config=CFG.replace(max_retries=0))
            healthy = self._run(svc, config=CFG.replace(seed=SEED + 2))
            second = _worker_pids(before)
        assert doomed.state == JobState.FAILED
        assert [entry["kind"] for entry in doomed.failure_chain] == ["crash"]
        assert healthy.state == JobState.DONE and healthy.attempts == 1
        assert len(first) == len(second) == 1 and first != second
        expected = check_program(build_bell_program(), healthy.config)
        assert healthy.report.to_json() == expected.to_json()

    def test_worker_killed_while_idle_costs_no_attempt(self):
        import os
        import signal

        before = _live_pids()
        with service(max_workers=1) as svc:
            self._run(svc)
            (pid,) = _worker_pids(before)
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + WAIT
            while pid in _live_pids():
                assert time.monotonic() < deadline, "killed worker never exited"
                time.sleep(0.01)
            job = self._run(svc, config=CFG.replace(seed=SEED + 1))
            assert _worker_pids(before) - {pid}
        assert job.state == JobState.DONE
        assert job.attempts == 1 and job.failure_chain == []

    def test_worker_that_reported_an_error_is_retired(self):
        before = _live_pids()
        with service(fault_spec="error@1", max_workers=1) as svc:
            self._run(svc)
            first = _worker_pids(before)
            failed = self._run(svc, config=CFG.replace(seed=SEED + 1))
            assert failed.state == JobState.FAILED
            assert [entry["kind"] for entry in failed.failure_chain] == ["error"]
            assert _worker_pids(before) == set()
            healthy = self._run(svc, config=CFG.replace(seed=SEED + 2))
            second = _worker_pids(before)
        assert healthy.state == JobState.DONE
        assert len(first) == len(second) == 1 and first != second

    def test_worker_retired_after_the_attempt_limit(self, monkeypatch):
        import repro.service.workers as workers

        monkeypatch.setattr(workers, "MAX_WORKER_ATTEMPTS", 2)
        before = _live_pids()
        with service(max_workers=1) as svc:
            seen = []
            for offset in range(3):
                self._run(svc, config=CFG.replace(seed=SEED + offset))
                seen.append(_worker_pids(before))
        assert len(seen[0]) == 1
        assert seen[1] == set()  # second attempt hit the limit: retired
        assert len(seen[2]) == 1 and seen[2] != seen[0]

    def test_send_to_a_dead_worker_is_a_crash(self, monkeypatch):
        import os
        import pickle
        import signal

        from repro.service.workers import WorkerPool

        payload = {
            "program_bytes": pickle.dumps(build_bell_program()),
            "config_json": CFG.to_json(),
        }
        pool = WorkerPool()
        try:
            assert pool.run(payload).status == "ok"
            (worker,) = pool._idle
            os.kill(worker.proc.pid, signal.SIGKILL)
            worker.proc.join(WAIT)
            # Dead, yet looks alive at checkout: the send hits a broken pipe.
            monkeypatch.setattr(worker.proc, "is_alive", lambda: True)
            outcome = pool.run(payload)
        finally:
            pool.close()
        assert outcome.status == "crash"
        assert outcome.exitcode == -signal.SIGKILL
        assert pool._idle == []

    def test_concurrent_jobs_over_more_workers_than_cores(self):
        import sys

        before = _live_pids()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with service(fault_spec="crash@3; crash@7; error@11",
                         max_workers=4) as svc:
                ids = [
                    svc.submit(build_bell_program(), CFG.replace(seed=SEED + n))
                    for n in range(24)
                ]
                jobs = svc.wait_all(ids, timeout=WAIT)
                assert 1 <= len(_worker_pids(before)) <= 4
        finally:
            sys.setswitchinterval(interval)
        assert _worker_pids(before) == set()
        assert [job.state for job in jobs] == (
            [JobState.DONE] * 11 + [JobState.FAILED] + [JobState.DONE] * 12
        )
        assert [job.attempts for job in jobs if job.index in (3, 7)] == [2, 2]
        for job in jobs:
            if job.state == JobState.DONE:
                expected = check_program(build_bell_program(), job.config)
                assert job.report.to_json() == expected.to_json()

    def test_close_leaves_no_live_child(self):
        before = _live_pids()
        svc = service(max_workers=2)
        ids = [
            svc.submit(build_bell_program(), CFG.replace(seed=SEED + offset))
            for offset in range(6)
        ]
        svc.wait_all(ids, timeout=WAIT)
        assert _worker_pids(before)
        svc.close()
        assert _worker_pids(before) == set()

    def test_warm_worker_reports_byte_identical_to_fresh_runs(self):
        from repro.bugs.injector import BUG_SCENARIOS
        from repro.compiler.plan_cache import default_plan_cache

        programs = [
            BUG_SCENARIOS["wrong_initial_value"].build_correct(),
            BUG_SCENARIOS["flipped_rotation_angles"].build_buggy(),
        ]
        before = _live_pids()
        with service(max_workers=1) as svc:
            jobs = [
                self._run(svc, program, CFG.replace(seed=SEED + offset))
                for offset in range(3)
                for program in programs
            ]
            assert len(_worker_pids(before)) == 1
        for job, program in zip(jobs, programs * 3):
            assert job.state == JobState.DONE
            default_plan_cache().clear()
            fresh = check_program(program, job.config)
            assert job.report.to_json() == fresh.to_json()


# ---------------------------------------------------------------------------
# HTTP front under hostile input: every request gets a JSON answer
# ---------------------------------------------------------------------------


class TestHTTPHostileInput:
    @pytest.fixture()
    def server(self):
        with service() as svc, serve_http(svc) as server:
            yield server

    @staticmethod
    def _request(server, method, path, body=None, headers=None):
        import http.client

        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=WAIT)
        try:
            conn.putrequest(method, path)
            for name, value in (headers or {}).items():
                conn.putheader(name, value)
            conn.endheaders(body)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def test_bad_wait_timeout_is_400(self, server):
        job_id = server.service.submit(build_bell_program(), CFG)
        for bad in ("abc", "-1", "nan"):
            status, body = self._request(
                server, "GET", f"/jobs/{job_id}/wait?timeout={bad}"
            )
            assert status == 400 and bad in body["error"]

    def test_negative_content_length_is_400_without_blocking(self, server):
        start = time.monotonic()
        status, body = self._request(
            server, "POST", "/jobs", headers={"Content-Length": "-1"}
        )
        assert status == 400 and "Content-Length" in body["error"]
        assert time.monotonic() - start < 10.0

    def test_oversized_body_is_413(self, server):
        from repro.service.http import MAX_BODY_BYTES

        status, body = self._request(
            server, "POST", "/jobs", body=b"{}",
            headers={"Content-Length": str(MAX_BODY_BYTES + 1)},
        )
        assert status == 413 and str(MAX_BODY_BYTES) in body["error"]

    def test_submit_to_closed_service_is_503(self, server):
        server.service.close()
        payload = json.dumps(
            {"program": to_qasm(build_bell_program()), "config": CFG.to_dict()}
        ).encode()
        status, body = self._request(
            server, "POST", "/jobs", body=payload,
            headers={"Content-Length": str(len(payload))},
        )
        assert status == 503 and "closed" in body["error"]

    def test_unexpected_handler_fault_is_500(self, server, monkeypatch):
        def broken_stats():
            raise ZeroDivisionError("stats broke")

        monkeypatch.setattr(server.service, "stats", broken_stats)
        status, body = self._request(server, "GET", "/stats")
        assert status == 500
        assert body["error"] == "ZeroDivisionError: stats broke"
