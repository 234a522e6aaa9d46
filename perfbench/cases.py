"""The benchmark's workloads: inputs from a seed, one timed op, output checks.

Each workload is driven by :mod:`run` as a single closed-loop client:

* ``setup(seed)`` builds the inputs and warms what a user's first call
  would warm; it may run several times in one process, and each run starts
  from cold caches;
* ``next_input()`` makes the next op's input (not timed);
* ``op(input)`` is the timed call into the package;
* ``record(index, input, output)`` keeps what ``verify`` needs (not
  timed) and returns False for an op that ended in the wrong state;
* ``verify()`` runs the output checks after the timed phase and returns
  the number of checked ops that failed.

The package only ever sees the generated inputs: programs, QASM text and
run configurations.
"""

from __future__ import annotations

import random

__all__ = ["WORKLOADS"]

#: Op indices whose outputs are kept for the output checks.
_SAMPLED = frozenset({0, 1, 3, 7, 15, 31, 63, 127, 255, 511, 1023, 2047})


def _fresh_seed(rng: random.Random) -> int:
    return rng.getrandbits(62)


class ShorWarmSweep:
    """Warm 13-qubit Shor checks served from recorded breakpoint snapshots."""

    name = "shor_warm_sweep"
    #: Ops per throughput window (about one second).
    cycle = 50
    #: Segments the tail is the median over: ~350 ops each in a 30-second
    #: run, so a segment's eleventh-slowest op is its 97th percentile.
    tail_segments = 5
    #: Host-speed reference (see run.HostSpeed): interpreter-bound ops.
    reference = "python"
    checks = 4

    def setup(self, seed: int) -> None:
        import repro
        from repro.compiler.plan_cache import default_plan_cache
        from repro.workloads import build_shor_noise_workload

        self.rng = random.Random(seed)
        self.program = build_shor_noise_workload()
        self.config = repro.RunConfig(ensemble_size=8)
        default_plan_cache().clear()
        # The cold walk: compiles the plan and records the snapshots every
        # later op is served from.
        repro.session(self.config.replace(seed=_fresh_seed(self.rng))).check(
            self.program
        )
        self.kept: "list[tuple[int, str]]" = []

    def next_input(self):
        return self.config.replace(seed=_fresh_seed(self.rng))

    def op(self, config):
        import repro

        return repro.session(config).check(self.program)

    def record(self, index, config, report) -> bool:
        if index in _SAMPLED and len(self.kept) < self.checks:
            self.kept.append((config.seed, report.to_json()))
        return True

    def verify(self) -> int:
        """Kept reports must equal a cold walk (plan cache cleared)."""
        import repro
        from repro.compiler.plan_cache import default_plan_cache

        failed = 0
        for seed, text in self.kept:
            default_plan_cache().clear()
            cold = repro.session(self.config.replace(seed=seed)).check(self.program)
            failed += cold.to_json() != text
        return failed

    def close(self) -> None:
        pass


class CmodmulNoisyTrajectory:
    """Noisy trajectory checks of the 11-qubit controlled modular multiplier."""

    name = "cmodmul_noisy_trajectory"
    cycle = 4
    #: About 90 ops in a 30-second run: the tail is near its 89th percentile.
    tail_segments = 1
    reference = "mixed"
    checks = 3

    def setup(self, seed: int) -> None:
        import repro
        from repro.bugs.injector import BUG_SCENARIOS
        from repro.compiler.plan_cache import default_plan_cache
        from repro.sim.noise import depolarizing

        self.rng = random.Random(seed)
        self.program = BUG_SCENARIOS["control_routing"].build_correct()
        self.config = repro.RunConfig(
            ensemble_size=16, backend="trajectory", noise=depolarizing(1e-4)
        )
        default_plan_cache().clear()
        # One walk compiles the plan; noisy walks are never snapshot-served,
        # so every later op walks every gate.
        warm = repro.session(self.config.replace(seed=_fresh_seed(self.rng)))
        self.breakpoints = len(warm.check(self.program).records)
        self.kept: "list[tuple[int, str]]" = []

    def next_input(self):
        return self.config.replace(seed=_fresh_seed(self.rng))

    def op(self, config):
        import repro

        return repro.session(config).check(self.program)

    def record(self, index, config, report) -> bool:
        if index in _SAMPLED and len(self.kept) < self.checks:
            self.kept.append((config.seed, report.to_json()))
        return len(report.records) == self.breakpoints and all(
            record.ensemble_size == 16 for record in report.records
        )

    def verify(self) -> int:
        """The same seed again must give the identical report."""
        import repro

        failed = 0
        for seed, text in self.kept:
            again = repro.session(self.config.replace(seed=seed)).check(self.program)
            failed += again.to_json() != text
        return failed

    def close(self) -> None:
        pass


#: One service cycle: (kind, corpus index).  ``write`` submits that
#: paper-corpus program under a fresh seed (a worker job and a result-cache
#: write); ``read`` resubmits the latest write of that program (answered
#: inline from the result cache); ``static`` submits the next wide Clifford
#: scenario with ``static_preflight`` (answered inline by the static rung).
#: Fourteen of the twenty jobs are worker jobs on the 4- and 7-qubit
#: programs, so the median op is one of them whatever the seed.  The
#: 11-qubit multiplier is written and read once a cycle: every job the
#: service has seen stays in memory (about 1.5 MB for each 11-qubit one),
#: and later forks slow as that grows, so more 11-qubit jobs per cycle
#: would tie every op's latency to how many ops the run managed.
_CYCLE = (
    ("write", 0), ("write", 5), ("write", 1), ("write", 2), ("read", 5),
    ("write", 3), ("write", 4), ("static", None), ("write", 0), ("write", 1),
    ("read", 0), ("write", 2), ("write", 3), ("write", 4), ("write", 0),
    ("static", None), ("write", 1), ("write", 2), ("read", 2), ("write", 3),
)

#: Paper-corpus programs (BUG_SCENARIOS, correct and buggy): five distinct
#: 4- and 7-qubit programs and the 11-qubit, 1,064-gate controlled modular
#: multiplier.
_CORPUS = (
    ("wrong_initial_value", False),
    ("wrong_initial_value", True),
    ("flipped_rotation_angles", False),
    ("flipped_rotation_angles", True),
    ("adder_iteration_off_by_one", True),
    ("control_routing", False),
)

#: Odd widths give a distinct program for every Clifford scenario.
_STATIC_WIDTHS = tuple(range(97, 161, 2))

_EXPECTED = {"write": "DONE", "read": "CACHED", "static": "STATIC"}


class ServiceMixed:
    """One client of a one-worker ``LocalService`` sending a mixed job cycle."""

    name = "service_mixed"
    cycle = len(_CYCLE)
    #: The whole run, so the tail falls inside the 11-qubit worker jobs.
    tail_segments = 1
    reference = "mixed"
    #: Worker jobs checked against an in-process run; every read and static
    #: job is checked.
    checks = 8

    def __init__(self):
        self.service = None
        #: Set by the runner for the traced phase (marks queued jobs).
        self.tracer = None

    def setup(self, seed: int) -> None:
        from repro.bugs.injector import BUG_SCENARIOS
        from repro.compiler.plan_cache import default_plan_cache
        from repro.lang.qasm import to_qasm
        from repro.service import LocalService
        from repro.workloads.clifford import CLIFFORD_SCENARIOS

        self.close()
        self.rng = random.Random(seed)
        self.corpus = []
        for name, buggy in _CORPUS:
            scenario = BUG_SCENARIOS[name]
            program = scenario.build_buggy() if buggy else scenario.build_correct()
            self.corpus.append(to_qasm(program))
        combos = [
            (name, buggy, width)
            for name in sorted(CLIFFORD_SCENARIOS)
            for buggy in (False, True)
            for width in _STATIC_WIDTHS
        ]
        self.rng.shuffle(combos)
        self.static_combos = combos
        self.position = 0
        self.statics = 0
        self.latest: "dict[int, dict]" = {}
        self.jobs: "list[tuple[str, dict, object]]" = []
        default_plan_cache().clear()
        self.service = LocalService(max_workers=1, root_seed=seed)
        # The first fork: a smallest worker job under a seed no op uses.
        self.op(("write", self._write_payload(0)))

    def _write_payload(self, program: int) -> dict:
        return {
            "program": self.corpus[program],
            "config": {
                "ensemble_size": 16,
                "seed": _fresh_seed(self.rng),
                "job_timeout": 60.0,
            },
        }

    def _static_payload(self) -> dict:
        from repro.lang.qasm import to_qasm
        from repro.workloads.clifford import CLIFFORD_SCENARIOS

        name, buggy, width = self.static_combos[
            self.statics % len(self.static_combos)
        ]
        self.statics += 1
        scenario = CLIFFORD_SCENARIOS[name]
        program = scenario.build_buggy(width) if buggy else scenario.build_correct(width)
        return {
            "program": to_qasm(program),
            "config": {
                "ensemble_size": 16,
                "seed": _fresh_seed(self.rng),
                "static_preflight": True,
            },
        }

    def next_input(self):
        kind, argument = _CYCLE[self.position % len(_CYCLE)]
        self.position += 1
        if kind == "write":
            payload = self.latest[argument] = self._write_payload(argument)
            return kind, payload
        if kind == "read":
            return kind, self.latest[argument]
        return kind, self._static_payload()

    def op(self, job_input):
        job_id = self.service.submit_payload(job_input[1])
        if self.tracer is not None and not self.service.job(job_id).terminal:
            self.tracer.mark_queued()
        return self.service.wait(job_id, timeout=120.0)

    def record(self, index, job_input, job) -> bool:
        kind, payload = job_input
        self.jobs.append((kind, payload, job))
        return job.state == _EXPECTED[kind]

    def verify(self) -> int:
        """Reports must equal an in-process ``check_program`` of the same
        program name and config; a read must return its write's bytes.

        Jobs that ended in the wrong state were counted by ``record``.
        """
        from repro.core.checker import check_program
        from repro.lang.qasm import from_qasm

        def differs(payload, job) -> bool:
            program = from_qasm(payload["program"], name=f"job-{job.index}")
            return check_program(program, job.config).to_json() != job.report.to_json()

        ended = [entry for entry in self.jobs if entry[2].state == _EXPECTED[entry[0]]]
        sources = {id(payload): job for kind, payload, job in self.jobs if kind == "write"}
        writes = [entry for entry in ended if entry[0] == "write"]
        step = max(1, len(writes) // self.checks)
        failed = sum(
            differs(payload, job) for _, payload, job in writes[::step][: self.checks]
        )
        for kind, payload, job in ended:
            if kind == "read":
                source = sources[id(payload)].report
                failed += source is None or source.to_json() != job.report.to_json()
            elif kind == "static":
                failed += differs(payload, job)
        return failed

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


WORKLOADS = {
    workload.name: workload
    for workload in (ShorWarmSweep, CmodmulNoisyTrajectory, ServiceMixed)
}
