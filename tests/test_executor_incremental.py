"""Equivalence and work-bound tests for the incremental checkpointed executor.

The incremental engine must be a pure optimisation: under a fixed seed its
measurement ensembles and chi-square verdicts match the paper's per-version
scheme (each breakpoint prefix compiled and run as its own program) on every
bug scenario, while performing O(total_gates) gate applications instead of
O(total_gates x k).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from bench_helpers import run_breakpoint_version  # noqa: E402
from repro.bugs import BUG_SCENARIOS
from repro.compiler import (
    BreakpointExecutor,
    ExecutionPlan,
    build_execution_plan,
    split_at_assertions,
)
from repro.core import DEFAULT_SIGNIFICANCE, RunConfig, build_evaluator, check_program
from repro.core.checker import StatisticalAssertionChecker
from repro.lang import Program
from repro.observables.pauli import PauliString, PauliSum
from repro.sim import StatevectorBackend
from repro.lang.program import run_instructions

SEED = 20190622


def _legacy_measurements(program, ensemble_size, seed):
    """The paper's literal scheme: every breakpoint prefix re-simulated."""
    executor = BreakpointExecutor(RunConfig(ensemble_size=ensemble_size, seed=seed))
    measurements = [
        run_breakpoint_version(executor, bp) for bp in split_at_assertions(program)
    ]
    return measurements, executor.gates_applied


def _incremental_measurements(program, ensemble_size, seed):
    """One checkpointed walk of the shared-prefix execution plan."""
    executor = BreakpointExecutor(RunConfig(ensemble_size=ensemble_size, seed=seed))
    measurements = executor.run_plan(build_execution_plan(program))
    return measurements, executor.gates_applied


def _verdicts(measurements):
    verdicts = []
    for item in measurements:
        evaluator = build_evaluator(item.breakpoint.assertion, DEFAULT_SIGNIFICANCE)
        if item.group_b is None:
            outcome = evaluator.evaluate(item.group_a)
        else:
            outcome = evaluator.evaluate(item.group_a, item.group_b)
        verdicts.append(outcome.passed)
    return verdicts


class TestSeededEquivalence:
    """Incremental ensembles/verdicts match the legacy path on every scenario."""

    @pytest.mark.parametrize("name", sorted(BUG_SCENARIOS))
    @pytest.mark.parametrize("variant", ["correct", "buggy"])
    def test_ensembles_and_verdicts_match_legacy(self, name, variant):
        scenario = BUG_SCENARIOS[name]
        build = scenario.build_correct if variant == "correct" else scenario.build_buggy
        program = build()
        legacy, legacy_gates = _legacy_measurements(program, 16, SEED)
        incremental, incremental_gates = _incremental_measurements(program, 16, SEED)

        assert len(legacy) == len(incremental) > 0
        for left, right in zip(legacy, incremental):
            assert left.breakpoint.index == right.breakpoint.index
            assert left.breakpoint.name == right.breakpoint.name
            assert left.joint.samples == right.joint.samples
            assert left.group_a.samples == right.group_a.samples
            if left.group_b is None:
                assert right.group_b is None
            else:
                assert left.group_b.samples == right.group_b.samples
        assert _verdicts(legacy) == _verdicts(incremental)
        assert incremental_gates <= legacy_gates

    def test_checker_report_matches_manual_plan_walk(self):
        """StatisticalAssertionChecker.run() rides the incremental engine."""
        from repro.core import check_program

        scenario = BUG_SCENARIOS["flipped_rotation_angles"]
        program = scenario.build_buggy()
        report = check_program(program, RunConfig(ensemble_size=16, seed=SEED))
        incremental, _ = _incremental_measurements(program, 16, SEED)
        assert [record.outcome.passed for record in report.records] == _verdicts(
            incremental
        )


class TestWorkBound:
    """The 'sample' executor performs O(total_gates) gate applications."""

    @staticmethod
    def _chain_program(num_blocks, gates_per_block):
        program = Program(f"chain_{num_blocks}x{gates_per_block}")
        q = program.qreg("q", 2)
        for _ in range(num_blocks):
            for _ in range(gates_per_block):
                program.h(q[0])
                program.cnot(q[0], q[1])
            program.assert_superposition([q[0]], label="block check")
        return program

    def test_incremental_gate_count_is_total_gates(self):
        program = self._chain_program(num_blocks=5, gates_per_block=4)
        plan = build_execution_plan(program)
        _, applied = _incremental_measurements(program, 8, SEED)
        assert applied == plan.total_gates == 40

    def test_legacy_gate_count_is_sum_of_prefixes(self):
        program = self._chain_program(num_blocks=5, gates_per_block=4)
        plan = build_execution_plan(program)
        _, applied = _legacy_measurements(program, 8, SEED)
        assert applied == plan.legacy_gates == sum(
            segment.gates_before for segment in plan.segments
        )
        assert applied == 8 + 16 + 24 + 32 + 40

    def test_incremental_work_independent_of_breakpoint_count(self):
        """Same gate content, k vs 2k assertions: identical incremental work."""
        sparse = self._chain_program(num_blocks=2, gates_per_block=10)
        dense = self._chain_program(num_blocks=10, gates_per_block=2)
        _, sparse_applied = _incremental_measurements(sparse, 8, SEED)
        _, dense_applied = _incremental_measurements(dense, 8, SEED)
        assert sparse_applied == dense_applied == 40

    def test_rerun_mode_unchanged_by_plans(self):
        """'rerun' keeps faithful per-member re-simulation of every prefix."""
        program = self._chain_program(num_blocks=2, gates_per_block=3)
        plan = build_execution_plan(program)
        executor = BreakpointExecutor(
            RunConfig(ensemble_size=4, seed=SEED, mode="rerun"),
        )
        executor.run_plan(plan)
        assert executor.gates_applied == 4 * plan.legacy_gates


class TestSnapshotIsolation:
    def test_sampling_at_a_breakpoint_never_perturbs_the_next(self):
        """Ensembles at breakpoint i+1 are identical whether or not breakpoint i
        was sampled — drawing from the snapshot leaves the walk untouched."""
        program = Program("isolation")
        q = program.qreg("q", 2)
        program.h(q[0])
        program.assert_superposition([q[0]], label="bp0")
        program.cnot(q[0], q[1])
        program.assert_entangled([q[0]], [q[1]], label="bp1")

        plan = build_execution_plan(program)
        executor = BreakpointExecutor(RunConfig(ensemble_size=512, seed=SEED))
        measurements = executor.run_plan(plan)

        # Breakpoint 1 sees the exact Bell statistics even though breakpoint 0
        # drew 512 samples first: the two groups stay perfectly correlated.
        assert measurements[1].group_a.samples == measurements[1].group_b.samples

    def test_backend_state_after_walk_matches_direct_simulation(self):
        """After walking all segments the backend holds the same state a
        single uninterrupted simulation produces (collapse-and-restore at
        each breakpoint leaves no trace)."""
        program = Program("walk")
        q = program.qreg("q", 3)
        program.h(q[0])
        program.assert_superposition([q[0]], label="bp0")
        program.cnot(q[0], q[1])
        program.assert_entangled([q[0]], [q[1]], label="bp1")
        program.cnot(q[1], q[2])

        plan = build_execution_plan(program)
        rng = np.random.default_rng(SEED)
        backend = StatevectorBackend(program.num_qubits)
        for segment in plan.segments:
            run_instructions(program, segment.instructions, backend, rng=rng)
            token = backend.snapshot()
            backend.measure(
                [program.qubit_index(qb) for qb in segment.assertion.qubits()], rng=rng
            )
            backend.restore(token)

        # The walk covered gates up to the last breakpoint only.
        prefix = split_at_assertions(program)[-1].program
        expected = prefix.simulate()
        assert np.allclose(backend.to_statevector().data, expected.data)


class TestNoPrefixPrograms:
    """Every executor path walks plan segments; none builds prefix programs."""

    @pytest.fixture(autouse=True)
    def _refuse_prefix_programs(self, monkeypatch):
        def refuse(plan):
            raise AssertionError("the executor built per-breakpoint prefix programs")

        monkeypatch.setattr(ExecutionPlan, "breakpoint_programs", refuse)

    @staticmethod
    def _program():
        return BUG_SCENARIOS["control_routing"].build_correct()

    @pytest.mark.parametrize("mode", ["sample", "rerun"])
    def test_cold_run(self, mode):
        program = self._program()
        report = check_program(program, RunConfig(ensemble_size=8, seed=SEED, mode=mode))
        assert [record.index for record in report.records] == [0, 1, 2, 3]

    def test_snapshot_served_run(self):
        program = self._program()
        config = RunConfig(ensemble_size=8, seed=SEED)
        cold = check_program(program, config)
        warm = StatisticalAssertionChecker(program, config)
        assert warm.run().to_json() == cold.to_json()
        assert warm.executor.gates_applied == 0
        assert warm.executor.shared_prefix_gates_saved > 0

    @pytest.mark.parametrize("mode", ["sample", "rerun"])
    def test_partially_skipped_run(self, mode):
        plan = build_execution_plan(self._program())
        executor = BreakpointExecutor(RunConfig(ensemble_size=8, seed=SEED, mode=mode))
        measured = executor.run_plan(plan, skip_indices={0, 2})
        assert [item.breakpoint.index for item in measured] == [1, 3]

    @pytest.mark.parametrize("backend", ["statevector", "auto"])
    @pytest.mark.parametrize("mode", ["sample", "rerun"])
    def test_observable_program(self, mode, backend):
        program = Program("bell_observable")
        q = program.qreg("q", 2)
        program.h(q[0])
        program.assert_superposition([q[0]], label="superposition")
        program.cnot(q[0], q[1])
        program.assert_observable(
            q,
            PauliSum([PauliString.from_label("ZZ"), PauliString.from_label("XX")]),
            expectation=2.0,
            tolerance=0.1,
        )
        config = RunConfig(ensemble_size=8, seed=SEED, mode=mode, backend=backend)
        report = check_program(program, config)
        assert [record.method for record in report.records] == ["sampled", "observable"]
        assert report.passed


class TestPlanStructure:
    def test_segments_partition_the_prefixes(self):
        scenario = BUG_SCENARIOS["control_routing"]
        program = scenario.build_correct()
        plan = build_execution_plan(program)
        breakpoints = split_at_assertions(program)
        assert plan.num_breakpoints == len(breakpoints)
        for segment, breakpoint_program in zip(plan.segments, breakpoints):
            assert segment.gates_before == breakpoint_program.gates_before
            assert segment.assertion is breakpoint_program.assertion
        assert plan.total_gates == breakpoints[-1].gates_before
        assert plan.legacy_gates == sum(bp.gates_before for bp in breakpoints)

    def test_split_at_assertions_dropped_dead_parameter(self):
        """The unused include_trailing flag is gone."""
        program = Program()
        q = program.qreg("q", 1)
        program.h(q[0])
        program.assert_superposition([q[0]])
        with pytest.raises(TypeError):
            split_at_assertions(program, include_trailing=True)

    def test_group_labels_assigned_at_construction(self):
        """_slice_groups passes labels through extract_bits, not mutation."""
        program = Program("labels")
        a = program.qreg("a", 1)
        b = program.qreg("b", 1)
        program.h(a[0])
        program.cnot(a[0], b[0])
        program.assert_entangled(a, b, label="pair")
        executor = BreakpointExecutor(RunConfig(ensemble_size=8, seed=SEED))
        (measurements,) = executor.run_plan(build_execution_plan(program))
        assert measurements.joint.label == "pair"
        assert measurements.group_a.label == "group_a"
        assert measurements.group_b.label == "group_b"
