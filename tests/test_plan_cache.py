"""Plan-cache tests: fingerprint stability, compile-once sweeps, snapshot reuse.

The PlanCache promises three things: a program's fingerprint is stable
across equivalent gate *spellings* (and an OpenQASM round trip), each unique
program compiles at most once per sweep, and a snapshot-served checking run
is verdict- and stream-identical to a cold-cache run on every backend
family.
"""

from __future__ import annotations

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
from repro.lang.instructions import GateInstruction
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
