"""Plan-cache tests: fingerprint stability, compile-once sweeps, snapshot reuse.

The PlanCache promises three things: a program's fingerprint is stable
across equivalent gate *spellings* (and an OpenQASM round trip), each unique
program compiles at most once per sweep, and a snapshot-served checking run
is verdict- and stream-identical to a cold-cache run on every backend
family.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

import repro
from repro import Program, RunConfig, check_program
from repro.compiler import (
    BreakpointExecutor,
    PlanCache,
    build_execution_plan,
    default_plan_cache,
    program_fingerprint,
)
from repro.lang import auto_place_assertions, compute, control, uncompute
from repro.lang.instructions import GateInstruction
from repro.lang.program import InstructionList
from repro.lang.qasm import from_qasm, to_qasm

SEED = 20190622

BACKENDS = ("statevector", "density", "stabilizer", "auto", "trajectory")


def bell_program(name: str = "bell") -> Program:
    program = Program(name)
    q = program.qreg("q", 2)
    program.h(q[0])
    program.cnot(q[0], q[1])
    program.assert_entangled([q[0]], [q[1]], label="bell pair")
    return program


def spelled_program(spelling: str) -> Program:
    """The same circuit under different but equivalent gate spellings."""
    program = Program(f"spelled_{spelling}")
    q = program.qreg("q", 2)
    program.h(q[0])
    if spelling == "s":
        program.s(q[0])
        program.sdg(q[1])
    else:
        # rz differs from s/sdg only by a global phase.
        program.rz(q[0], np.pi / 2)
        program.rz(q[1], -np.pi / 2)
    program.cnot(q[0], q[1])
    program.assert_entangled([q[0]], [q[1]], label="pair")
    return program


class TestFingerprint:
    def test_identical_programs_share_a_fingerprint(self):
        assert program_fingerprint(bell_program()) == program_fingerprint(
            bell_program("other_name")
        )

    def test_stable_across_equivalent_gate_spellings(self):
        # s == rz(pi/2) and sdg == rz(-pi/2) up to global phase, which can
        # never change measurement statistics on an uncontrolled gate.
        assert program_fingerprint(spelled_program("s")) == program_fingerprint(
            spelled_program("rz")
        )

    def test_phase_and_rz_spellings_match(self):
        def build(use_phase: bool) -> Program:
            program = Program("p")
            q = program.qreg("q", 1)
            program.h(q[0])
            if use_phase:
                program.phase(q[0], np.pi / 4)
            else:
                program.rz(q[0], np.pi / 4)
            program.assert_superposition([q[0]], label="sup")
            return program

        assert program_fingerprint(build(True)) == program_fingerprint(build(False))

    def test_controlled_spellings_keep_global_phase(self):
        # Under a control the base gate's global phase becomes a *relative*
        # phase: controlled-s and controlled-rz(pi/2) are different unitaries
        # and must not collide.
        def build(name: str, params: tuple) -> Program:
            program = Program("c")
            q = program.qreg("q", 2)
            program.h(q[0])
            program.append(
                GateInstruction(
                    name=name, targets=(q[1],), controls=(q[0],), params=params
                )
            )
            program.assert_entangled([q[0]], [q[1]], label="pair")
            return program

        assert program_fingerprint(build("s", ())) != program_fingerprint(
            build("rz", (np.pi / 2,))
        )

    def test_different_circuits_differ(self):
        other = bell_program()
        other.x(other.registers[0][1])
        assert program_fingerprint(bell_program()) != program_fingerprint(other)

    def test_assertion_operands_and_labels_matter(self):
        relabelled = Program("bell")
        q = relabelled.qreg("q", 2)
        relabelled.h(q[0])
        relabelled.cnot(q[0], q[1])
        relabelled.assert_entangled([q[0]], [q[1]], label="other label")
        assert program_fingerprint(bell_program()) != program_fingerprint(relabelled)

    def test_qasm_round_trip_is_fingerprint_stable(self):
        # Export lowers PrepZ(q, 1) to `reset; x` and spells phases as u1;
        # the fingerprint canonicalises both, so a round-tripped program
        # (assertions are dropped by OpenQASM 2.0, so compare without them)
        # keys identically.
        program = Program("roundtrip")
        q = program.qreg("q", 2)
        program.prep_z(q[0], 1)
        program.h(q[1])
        program.phase(q[1], np.pi / 8)
        program.cnot(q[0], q[1])
        reimported = from_qasm(to_qasm(program))
        assert program_fingerprint(program) == program_fingerprint(reimported)

    def test_terminal_measure_and_barriers_do_not_affect_it(self):
        bare = bell_program()
        dressed = bell_program()
        q = dressed.registers[0]
        dressed.barrier()
        dressed.measure([q[0], q[1]])
        assert program_fingerprint(bare) == program_fingerprint(dressed)


def rebuilt(program: Program) -> Program:
    """A fresh program equal to ``program``, built without any memo."""
    fresh = Program(program.name)
    for register in program.registers:
        fresh.add_register(register)
    for instruction in program.instructions:
        fresh.append(instruction)
    return fresh.suppress_lint(*program.lint_suppressions)


def x_gate(qubit) -> GateInstruction:
    return GateInstruction(name="x", targets=(qubit,))


def patterned_program() -> Program:
    """A control block and a compute/uncompute pair: both suggest assertions."""
    program = Program("patterned")
    c = program.qreg("c", 1)
    data = program.qreg("d", 2)
    scratch = program.qreg("s", 1)
    program.h(c[0])
    with compute(program, involved=[scratch[0]]):
        program.cnot(data[0], scratch[0])
    with control(program, c):
        program.x(data[1])
    uncompute(program)
    return program


def _delete_first(program: Program) -> None:
    del program.instructions[0]


def _add_in_place(program: Program) -> None:
    program.instructions += [x_gate(program.registers[0][1])]


def _assign(program: Program) -> None:
    program.instructions = list(reversed(program.instructions))


def _set_slice(program: Program) -> None:
    program.instructions[0:1] = [x_gate(program.registers[0][0])]


#: Mutations of a fingerprinted bell program, each of which moves its digest.
MUTATIONS = {
    "append": lambda p: p.x(p.registers[0][1]),
    "extend": lambda p: p.extend([x_gate(p.registers[0][1])]),
    "add_register": lambda p: p.qreg("extra", 1),
    "suppress_lint": lambda p: p.suppress_lint("qlint003"),
    "slice_assignment": _set_slice,
    "insert": lambda p: p.instructions.insert(1, x_gate(p.registers[0][0])),
    "pop": lambda p: p.instructions.pop(),
    "del": _delete_first,
    "iadd": _add_in_place,
    "clear": lambda p: p.instructions.clear(),
    "sort": lambda p: p.instructions.sort(key=lambda i: type(i).__name__),
    "assignment": _assign,
}


class TestFingerprintMemo:
    """The digest is memoised on the program and every mutation drops it."""

    def test_memo_is_the_digest(self):
        program = bell_program()
        digest = program_fingerprint(program)
        assert program.instructions.fingerprint == digest
        assert program_fingerprint(program) == digest

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutation_drops_the_memo(self, mutation):
        program = bell_program()
        before = program_fingerprint(program)
        MUTATIONS[mutation](program)
        after = program_fingerprint(program)
        assert after != before
        assert after == program_fingerprint(rebuilt(program))
        assert isinstance(program.instructions, InstructionList)

    def test_control_block_rewrite_drops_the_memo(self):
        program = Program("controlled")
        c = program.qreg("c", 1)
        q = program.qreg("q", 1)
        with control(program, c):
            program.x(q[0])
            before = program_fingerprint(program)
        after = program_fingerprint(program)
        assert after != before
        assert after == program_fingerprint(rebuilt(program))

    def test_auto_placed_assertions_drop_the_memo(self):
        program = patterned_program()
        before = program_fingerprint(program)
        assert auto_place_assertions(program)
        after = program_fingerprint(program)
        assert after != before
        assert after == program_fingerprint(rebuilt(program))

    def test_breakpoint_programs_fingerprint_their_prefixes(self):
        program = bell_program()
        program.x(program.registers[0][0])
        program.assert_classical(program.registers[0], 2, label="flipped")
        source = program_fingerprint(program)
        digests = []
        for breakpoint in build_execution_plan(program).breakpoint_programs():
            prefix = breakpoint.program
            empty = program_fingerprint(Program(prefix.name))
            digest = program_fingerprint(prefix)
            assert digest == program_fingerprint(rebuilt(prefix))
            assert digest not in (empty, source)
            digests.append(digest)
        assert len(set(digests)) == len(digests) == 2

    def test_lint_suppressions_are_read_only(self):
        program = bell_program()
        program_fingerprint(program)
        assert program.lint_suppressions == frozenset()
        with pytest.raises(AttributeError):
            program.lint_suppressions.add("QLINT003")
        with pytest.raises(AttributeError):
            program.lint_suppressions = {"QLINT003"}
        assert program_fingerprint(program) == program_fingerprint(bell_program())

    @pytest.mark.parametrize(
        "clone", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy]
    )
    def test_clones_keep_the_type_and_digest(self, clone):
        program = bell_program()
        digest = program_fingerprint(program)
        twin = clone(program)
        assert type(twin.instructions) is InstructionList
        assert program_fingerprint(twin) == digest
        twin.x(twin.registers[0][0])
        assert twin.instructions.fingerprint is None
        assert program.instructions.fingerprint == digest
        assert program_fingerprint(twin) == program_fingerprint(rebuilt(twin))
        assert program_fingerprint(twin) != digest

    def test_memo_travels_with_a_pickle(self):
        program = bell_program()
        digest = program_fingerprint(program)
        assert pickle.loads(pickle.dumps(program)).instructions.fingerprint == digest

    def test_service_job_on_a_memoised_program_is_done(self):
        from repro.service import JobState, LocalService

        config = RunConfig(ensemble_size=8, seed=SEED)
        program = bell_program()
        program_fingerprint(program)
        with LocalService(max_workers=1, root_seed=SEED) as service:
            job = service.wait(service.submit(program, config), timeout=60.0)
        assert job.state == JobState.DONE
        assert job.report.to_json() == check_program(bell_program(), config).to_json()


class TestPlanCache:
    def test_compiles_once_and_counts_hits(self):
        cache = PlanCache()
        plan = cache.plan_for(bell_program())
        again = cache.plan_for(bell_program())
        assert plan is again
        assert plan.fingerprint is not None
        assert (cache.misses, cache.hits) == (1, 1)
        assert plan.cache_hits == 1

    def test_lru_eviction_is_bounded(self):
        cache = PlanCache(max_entries=2)
        programs = [bell_program() for _ in range(3)]
        programs[1].x(programs[1].registers[0][0])
        programs[2].h(programs[2].registers[0][1])
        for program in programs:
            cache.plan_for(program)
        assert len(cache) == 2

    def test_clear_resets_counters(self):
        cache = PlanCache()
        cache.plan_for(bell_program())
        cache.plan_for(bell_program())
        cache.clear()
        assert cache.stats() == {
            "plans": 0,
            "hits": 0,
            "misses": 0,
            "snapshot_hits": 0,
            "snapshot_misses": 0,
            "gates_saved": 0,
            "analysis_hits": 0,
            "analysis_misses": 0,
            "static_short_circuits": 0,
            "static_gates_saved": 0,
        }

    def test_sweep_compiles_each_unique_program_once(self):
        cache = default_plan_cache()
        session = repro.session(RunConfig(ensemble_size=8, seed=SEED))
        for significance in (0.01, 0.02, 0.05, 0.10):
            session._derive(significance=significance).check(bell_program())
        stats = cache.stats()
        assert stats["misses"] == 1  # <= 1 compile per unique program
        assert stats["hits"] == 3
        assert stats["snapshot_hits"] == 3

    def test_directly_built_plans_bypass_the_cache(self):
        # Plans without a fingerprint (the historical build_execution_plan
        # path) must never be served from or recorded into snapshots, so
        # low-level gate-count experiments stay exact.
        plan = build_execution_plan(bell_program())
        assert plan.fingerprint is None
        executor = BreakpointExecutor(RunConfig(ensemble_size=8, seed=SEED))
        executor.run_plan(plan)
        executor.run_plan(plan)
        assert executor.shared_prefix_gates_saved == 0
        assert executor.gates_applied == 2 * plan.total_gates


class TestSnapshotReuse:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cache_hit_run_identical_to_cold_run(self, backend):
        config = RunConfig(ensemble_size=16, seed=SEED, backend=backend)
        cache = default_plan_cache()
        cold = check_program(bell_program(), config)
        assert cache.stats()["snapshot_hits"] == 0
        warm = check_program(bell_program(), config)
        assert cache.stats()["snapshot_hits"] == 1
        assert warm.to_json() == cold.to_json()

    def test_snapshot_run_skips_the_walk(self):
        config = RunConfig(ensemble_size=8, seed=SEED)
        check_program(bell_program(), config)
        checker = repro.StatisticalAssertionChecker(bell_program(), config)
        checker.run()
        assert checker.executor.gates_applied == 0
        assert checker.executor.shared_prefix_gates_saved == 2

    def test_gate_noise_points_never_share_snapshots(self):
        from repro.sim import NoiseModel, depolarizing

        noise = NoiseModel.from_channels(depolarizing(0.01))
        config = RunConfig(
            ensemble_size=8, seed=SEED, backend="trajectory", noise=noise
        )
        check_program(bell_program(), config)
        check_program(bell_program(), config)
        assert default_plan_cache().stats()["snapshot_hits"] == 0

    def test_mid_circuit_reset_on_touched_qubit_disables_sharing(self):
        # PrepZ on a superposed qubit is a measurement-based reset that
        # consumes an rng draw, so snapshot sharing would desynchronise the
        # stream; the static walk check must refuse to share.
        program = Program("reset")
        q = program.qreg("q", 1)
        program.h(q[0])
        program.prep_z(q[0], 0)
        program.h(q[0])
        program.assert_superposition([q[0]], label="sup")
        config = RunConfig(ensemble_size=8, seed=SEED)
        cold = check_program(program, config)
        warm = check_program(program, config)
        assert default_plan_cache().stats()["snapshot_hits"] == 0
        assert warm.to_json() == cold.to_json()

    def test_describe_reports_reuse_counters(self):
        config = RunConfig(ensemble_size=8, seed=SEED)
        check_program(bell_program(), config)
        check_program(bell_program(), config)
        plan = default_plan_cache().plan_for(bell_program())
        text = plan.describe()
        assert "plan-cache hits" in text
        assert "shared-prefix gates saved" in text

    def test_assertion_cost_reports_cache_stats(self):
        from repro.workloads import assertion_cost

        config = RunConfig(ensemble_size=8, seed=SEED)
        check_program(bell_program(), config)
        check_program(bell_program(), config)
        row = assertion_cost(bell_program())
        assert row["plan_cache_hits"] >= 2
        assert row["shared_prefix_gates_saved"] == 2
        assert row["plan_cache"]["misses"] == 1


def mixed_program() -> Program:
    """Four breakpoints over a Clifford prefix and a non-Clifford tail."""
    program = Program("mixed")
    q = program.qreg("q", 3)
    program.x(q[2])
    program.assert_classical([q[2]], 1, label="set")
    program.h(q[0])
    program.cnot(q[0], q[1])
    program.assert_entangled([q[0]], [q[1]], label="pair")
    program.t(q[0])
    program.h(q[0])
    program.assert_superposition([q[0]], label="tail")
    program.assert_product([q[0], q[1]], [q[2]], label="split")
    return program


def classical_program() -> Program:
    """Classical breakpoints only: their test accepts a one-member ensemble."""
    program = Program("classical")
    q = program.qreg("q", 2)
    program.x(q[1])
    program.assert_classical([q[1]], 1, label="set")
    program.t(q[1])
    program.cnot(q[1], q[0])
    program.assert_classical([q[0], q[1]], 3, label="copied")
    return program


def cold_then_warm(program_factory, config):
    """(cold report, snapshot-served report) as JSON, with a fresh cache."""
    cache = default_plan_cache()
    cache.clear()
    cold = check_program(program_factory(), config).to_json()
    hits = cache.stats()["snapshot_hits"]
    warm = check_program(program_factory(), config).to_json()
    assert cache.stats()["snapshot_hits"] == hits + 1
    return cold, warm


class TestRecordedCdfs:
    """Served runs draw from the CDFs the cold walk recorded per breakpoint."""

    @pytest.mark.parametrize("readout", [None, 0.05])
    @pytest.mark.parametrize(
        "backend, ensemble",
        [("statevector", 16), ("density", 16), ("stabilizer", 16),
         ("auto", 16), ("hybrid", 16), ("trajectory", 1), ("trajectory", 16)],
    )
    def test_served_report_is_byte_identical_to_cold(self, backend, ensemble, readout):
        program = mixed_program if ensemble > 1 else classical_program
        if backend == "stabilizer":
            program = bell_program
        config = RunConfig(
            ensemble_size=ensemble, seed=SEED, backend=backend, readout_error=readout
        )
        cold, warm = cold_then_warm(program, config)
        assert warm == cold

    def test_skip_indices_run_is_identical_on_a_warm_cache(self):
        config = RunConfig(ensemble_size=16, seed=SEED, static_preflight=True)
        cold = check_program(mixed_program(), config)
        assert any(record.method == "static" for record in cold.records)
        assert any(record.method != "static" for record in cold.records)
        default_plan_cache().clear()
        check_program(mixed_program(), config.replace(static_preflight=False))
        warm = check_program(mixed_program(), config)
        assert warm.to_json() == cold.to_json()

    def test_cdfs_are_recorded_read_only_beside_the_tokens(self):
        config = RunConfig(ensemble_size=8, seed=SEED)
        check_program(mixed_program(), config)
        plan = default_plan_cache().plan_for(mixed_program())
        served = default_plan_cache().snapshots_for(plan, "statevector")
        assert len(served.cdfs) == len(served.tokens) == plan.num_breakpoints
        for cdf in served.cdfs:
            assert cdf is not None
            assert cdf.flags.writeable is False
            assert cdf[-1] == 1.0

    def test_trajectory_members_record_no_cdf(self):
        config = RunConfig(ensemble_size=8, seed=SEED, backend="trajectory")
        check_program(mixed_program(), config)
        plan = default_plan_cache().plan_for(mixed_program())
        served = default_plan_cache().snapshots_for(plan, "trajectory")
        assert served.cdfs == [None] * plan.num_breakpoints

    def test_warm_statevector_run_never_touches_the_engine(self, monkeypatch):
        config = RunConfig(ensemble_size=8, seed=SEED)
        check_program(mixed_program(), config)
        plan = default_plan_cache().plan_for(mixed_program())
        engine = default_plan_cache().snapshots_for(plan, "statevector").engine
        calls = []

        def spy(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return call

        for name in ("restore", "probabilities", "sample"):
            monkeypatch.setattr(engine, name, spy(name, getattr(engine, name)))
        checker = repro.StatisticalAssertionChecker(mixed_program(), config)
        checker.run()
        assert checker.executor.shared_prefix_gates_saved > 0
        assert calls == []
        engine.probabilities([0])
        assert calls == ["probabilities"]

    def test_concurrent_warm_checks_match_serial_reports(self):
        # Served runs share one cache-owned engine per SnapshotSet.  CDF
        # draws never touch it, and the runs that still restore into it
        # (trajectory members, native readout) hold the set's lock, so no
        # thread reads the breakpoint state another thread restored.
        import sys
        import threading

        from repro.workloads import build_shor_noise_workload

        shor = build_shor_noise_workload()
        cases = [
            (lambda: shor, RunConfig(ensemble_size=8)),
            (mixed_program, RunConfig(ensemble_size=16, backend="trajectory")),
            (mixed_program, RunConfig(ensemble_size=16, backend="density",
                                      readout_error=0.05)),
        ]
        seeds = range(100, 500)
        for program_factory, config in cases:
            check_program(program_factory(), config.replace(seed=1))
        expected = {
            (case, seed): check_program(factory(), config.replace(seed=seed)).to_json()
            for case, (factory, config) in enumerate(cases)
            for seed in seeds
        }
        got = {}

        def work(chunk):
            for case, seed in chunk:
                factory, config = cases[case]
                got[case, seed] = check_program(
                    factory(), config.replace(seed=seed)
                ).to_json()

        keys = sorted(expected)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(keys[start::4],))
                for start in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert [key for key in keys if got[key] != expected[key]] == []
