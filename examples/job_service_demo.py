#!/usr/bin/env python3
"""Debugging-as-a-service tour: async jobs, crash recovery, degradation.

Drives the `repro.service` job layer end to end: submit a mixed batch of
checking jobs (worker-pool, cache-served, statically decided), kill a worker
mid-run via the deterministic fault-injection harness, and watch every job
reach a terminal state anyway — the crashed job's retried report is
byte-identical to an uninjected run, the hung job comes back as a structured
TIMEOUT, and the cached/static jobs answer even with the worker pool down.

Run with:  python examples/job_service_demo.py
"""

from repro import RunConfig
from repro.algorithms.bell import build_bell_program, build_ghz_program
from repro.core.report import format_table
from repro.service import JobState, LocalService, serve_http

SEED = 20190622


def job_rows(jobs):
    return [
        {
            "job": job.id,
            "program": job.program_name,
            "state": job.state,
            "attempts": job.attempts,
            "failures": "; ".join(
                f"{entry['kind']}@attempt{entry['attempt']}"
                for entry in job.failure_chain
            )
            or "-",
            "passed": job.report.passed if job.report is not None else "-",
        }
        for job in jobs
    ]


def main() -> int:
    config = RunConfig(ensemble_size=16, backoff_base=0.05, job_timeout=2.0)

    # -- 1. a mixed batch under injected chaos ---------------------------
    # Fault schedule (by submission index): job 0's first worker is
    # SIGKILLed mid-run, job 1's worker hangs until the timeout kill.
    print("=== mixed batch with a worker killed mid-run ===")
    with LocalService(
        max_workers=2, root_seed=SEED, fault_spec="crash@0; hang@1"
    ) as svc:
        ids = [
            svc.submit(build_bell_program(), config),  # crashed, then retried
            svc.submit(build_bell_program(), config),  # hangs -> TIMEOUT
            svc.submit(build_ghz_program(3), config),  # plain worker run
            # Statically decidable: answered at submission, no worker.
            svc.submit(
                build_ghz_program(4), config.replace(static_preflight=True)
            ),
            # Same program+config as job 0 after it finishes -> CACHED
            # (submitted below, once the first report exists).
        ]
        jobs = svc.wait_all(ids)

        # Repeat job 0's exact submission: the content-addressed cache
        # answers inline, byte-identical to the worker-computed report.
        repeat_id = svc.submit(build_bell_program(), jobs[0].config)
        repeat = svc.wait(repeat_id)
        jobs.append(repeat)
        print(format_table(job_rows(jobs)))
        assert all(job.terminal for job in jobs), "a job was lost!"
        assert jobs[0].state == JobState.DONE and jobs[0].attempts == 2
        assert jobs[1].state == JobState.TIMEOUT
        assert repeat.state == JobState.CACHED
        assert repeat.report.to_json() == jobs[0].report.to_json()
        print(
            f"\njob 0 survived a SIGKILL ({jobs[0].attempts} attempts); "
            "its retried report is byte-identical to the repeat's cache hit."
        )

    # -- 2. the same crash, uninjected baseline --------------------------
    print("\n=== byte-identity against an uninjected service ===")
    with LocalService(max_workers=2, root_seed=SEED) as clean:
        baseline = clean.wait(clean.submit(build_bell_program(), config))
    assert baseline.report.to_json() == jobs[0].report.to_json()
    print(
        "same root seed, same submission index, no faults: "
        "the report matches the crash-recovered one byte for byte."
    )

    # -- 3. degradation: the pool is entirely down -----------------------
    print("\n=== pool down (max_workers=0): the ladder still answers ===")
    with LocalService(max_workers=0, root_seed=SEED) as down:
        static = down.job(
            down.submit(
                build_ghz_program(3), config.replace(static_preflight=True)
            )
        )
        queued_id = down.submit(build_bell_program(), config)
        print(
            f"static job: {static.state} "
            f"({static.report.num_static} assertions decided without a sample)"
        )
        print(f"noisy job:  {down.job(queued_id).state} (no worker to run it)")
        assert static.state == JobState.STATIC
        assert down.job(queued_id).state == JobState.QUEUED

    # -- 4. the HTTP front ----------------------------------------------
    print("\n=== the same service over HTTP ===")
    import json
    import urllib.request

    from repro.lang import to_qasm

    with LocalService(max_workers=2, root_seed=SEED) as svc, serve_http(
        svc
    ) as server:
        payload = json.dumps(
            {"program": to_qasm(build_bell_program()), "config": config.to_dict()}
        ).encode()
        request = urllib.request.Request(
            server.url + "/jobs", data=payload, method="POST"
        )
        with urllib.request.urlopen(request) as resp:
            job_id = json.load(resp)["job_id"]
        with urllib.request.urlopen(
            server.url + f"/jobs/{job_id}/wait?timeout=60"
        ) as resp:
            body = json.load(resp)
        print(
            f"POST /jobs -> {job_id}; GET /jobs/{job_id}/wait -> "
            f"state={body['state']} passed={body['report']['passed']}"
        )
        assert body["state"] == JobState.DONE

    print("\nevery job reached a terminal state; no work was lost.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
