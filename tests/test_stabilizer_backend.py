"""Tests for the stabilizer tableau backend and hybrid Clifford routing."""

import numpy as np
import pytest

from repro.compiler import BreakpointExecutor, build_execution_plan
from repro.core import RunConfig, check_program
from repro.lang import (
    Program,
    clifford_prefix_length,
    is_clifford_instruction,
)
from repro.lang.instructions import GateInstruction
from repro.sim import (
    HybridCliffordBackend,
    NotCliffordGateError,
    StabilizerBackend,
    Statevector,
    gates,
    make_backend,
)
from repro.sim.clifford import (
    decompose_controlled_gate,
    match_controlled_pauli,
    match_single_qubit_clifford,
)
from repro.workloads import (
    CLIFFORD_SCENARIOS,
    build_ghz_chain_program,
    build_repetition_code_program,
    build_teleportation_program,
)

SEED = 20190622

#: (name, matrix) pairs covering every spelling of the tableau generator set.
CLIFFORD_1Q = [
    ("h", gates.H),
    ("s", gates.S),
    ("sdg", gates.SDG),
    ("x", gates.X),
    ("y", gates.Y),
    ("z", gates.Z),
    ("sx", gates.SX),
    ("rz(pi/2)", gates.rz(np.pi / 2)),
    ("rx(-pi/2)", gates.rx(-np.pi / 2)),
    ("ry(pi/2)", gates.ry(np.pi / 2)),
    ("phase(3pi/2)", gates.phase(3 * np.pi / 2)),
]
CLIFFORD_2Q = [("cx", gates.CNOT), ("cz", gates.CZ), ("swap", gates.SWAP)]
CONTROLLED_PAULI = [
    ("cx", gates.X),
    ("cy", gates.Y),
    ("cz", gates.Z),
    ("c-rz(pi)", gates.rz(np.pi)),
    ("c-phase(pi)", gates.phase(np.pi)),
    ("c-iX", 1j * gates.X),
]


def _random_clifford_pair(rng, num_qubits, depth=40):
    """A random Clifford circuit applied to both backends in lock-step."""
    sv = Statevector(num_qubits)
    tableau = StabilizerBackend(num_qubits)
    for _ in range(depth):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            _, matrix = CLIFFORD_1Q[int(rng.integers(len(CLIFFORD_1Q)))]
            q = int(rng.integers(num_qubits))
            sv.apply_matrix(matrix, [q])
            tableau.apply_matrix(matrix, [q])
        elif kind == 1:
            _, matrix = CLIFFORD_2Q[int(rng.integers(len(CLIFFORD_2Q)))]
            a, b = (int(q) for q in rng.permutation(num_qubits)[:2])
            sv.apply_matrix(matrix, [a, b])
            tableau.apply_matrix(matrix, [a, b])
        else:
            _, matrix = CONTROLLED_PAULI[int(rng.integers(len(CONTROLLED_PAULI)))]
            a, b = (int(q) for q in rng.permutation(num_qubits)[:2])
            sv.apply_controlled(matrix, [a], [b])
            tableau.apply_controlled(matrix, [a], [b])
    return sv, tableau


class TestCliffordRecognition:
    @pytest.mark.parametrize("name,matrix", CLIFFORD_1Q)
    def test_single_qubit_cliffords_recognised(self, name, matrix):
        assert match_single_qubit_clifford(matrix) is not None

    def test_t_gate_not_recognised(self):
        assert match_single_qubit_clifford(gates.T) is None
        assert match_single_qubit_clifford(gates.TDG) is None

    def test_rotation_by_generic_angle_not_recognised(self):
        assert match_single_qubit_clifford(gates.rz(0.3)) is None

    @pytest.mark.parametrize("name,matrix", CONTROLLED_PAULI)
    def test_controlled_pauli_recognised(self, name, matrix):
        assert match_controlled_pauli(matrix) is not None

    def test_controlled_s_rejected(self):
        # c-phase(pi/2) = controlled-S is the canonical non-Clifford trap:
        # phase(pi/2) is Clifford uncontrolled but not of the i^k*P form.
        assert match_single_qubit_clifford(gates.phase(np.pi / 2)) is not None
        assert match_controlled_pauli(gates.phase(np.pi / 2)) is None

    def test_multi_control_rejected(self):
        with pytest.raises(NotCliffordGateError):
            decompose_controlled_gate(gates.X, num_controls=2, num_targets=1)
        with pytest.raises(NotCliffordGateError):
            decompose_controlled_gate(gates.SWAP, num_controls=1, num_targets=2)


class TestInstructionClassification:
    def test_clifford_gates_tagged(self):
        program = Program()
        q = program.qreg("q", 3)
        program.h(q[0]).cnot(q[0], q[1]).cz(q[1], q[2]).swap(q[0], q[2])
        program.s(q[0]).sdg(q[1]).rz(q[2], np.pi / 2)
        program.cphase(q[0], q[1], np.pi)  # == CZ
        assert all(is_clifford_instruction(i) for i in program.instructions)

    def test_non_clifford_gates_tagged(self):
        program = Program()
        q = program.qreg("q", 3)
        program.t(q[0])
        program.cphase(q[0], q[1], np.pi / 2)  # controlled-S
        program.toffoli(q[0], q[1], q[2])
        program.rz(q[0], 0.7)
        assert not any(
            is_clifford_instruction(i)
            for i in program.instructions
            if isinstance(i, GateInstruction)
        )

    def test_non_gate_instructions_are_compatible(self):
        program = Program()
        q = program.qreg("q", 2)
        program.prep_z(q[0], 1)
        program.barrier()
        program.assert_classical([q[0]], 1)
        program.measure(q)
        assert all(is_clifford_instruction(i) for i in program.instructions)

    def test_prefix_length(self):
        program = Program()
        q = program.qreg("q", 2)
        program.h(q[0]).cnot(q[0], q[1]).t(q[0]).h(q[1])
        assert clifford_prefix_length(program.instructions) == 2


class TestStabilizerContract:
    """The full SimulationBackend contract on the tableau."""

    def test_registry(self):
        assert isinstance(make_backend("stabilizer"), StabilizerBackend)
        assert isinstance(make_backend("auto"), HybridCliffordBackend)
        assert isinstance(make_backend("hybrid"), HybridCliffordBackend)

    def test_requires_initialisation(self):
        with pytest.raises(RuntimeError):
            StabilizerBackend().probabilities()

    def test_initialize_to_zero(self):
        backend = StabilizerBackend(4)
        assert backend.num_qubits == 4
        assert backend.probabilities([0, 1, 2, 3])[0] == 1.0

    def test_initialize_from_basis_state(self):
        backend = StabilizerBackend().initialize(
            2, initial_state=Statevector.from_label("10")
        )
        assert backend.probabilities([0, 1])[2] == 1.0

    def test_initialize_from_superposition_raises(self):
        state = Statevector.uniform_superposition(2)
        with pytest.raises(ValueError, match="basis state"):
            StabilizerBackend().initialize(2, initial_state=state)

    def test_gate_counter(self):
        backend = StabilizerBackend(2)
        backend.apply_gate("h", [0])
        backend.apply_controlled(gates.X, [0], [1])
        backend.apply_matrix(gates.SWAP, [0, 1])
        assert backend.gates_applied == 3
        assert backend.statevector_gates_applied == 0

    def test_non_clifford_raises(self):
        backend = StabilizerBackend(2)
        with pytest.raises(NotCliffordGateError):
            backend.apply_matrix(gates.T, [0])
        with pytest.raises(NotCliffordGateError):
            backend.apply_controlled(gates.phase(np.pi / 4), [0], [1])
        # The failed application is not counted.
        assert backend.gates_applied == 0

    def test_snapshot_restore_roundtrip(self, rng):
        backend = StabilizerBackend(3)
        backend.apply_gate("h", [0])
        backend.apply_controlled(gates.X, [0], [1])
        backend.apply_controlled(gates.X, [1], [2])
        before = backend.probabilities([0, 1, 2]).copy()
        token = backend.snapshot()
        backend.measure([0, 1, 2], rng=rng)
        assert np.max(backend.probabilities([0, 1, 2])) == 1.0
        backend.restore(token)
        assert np.allclose(backend.probabilities([0, 1, 2]), before)
        # The token stays valid across repeated restores.
        backend.measure([0, 1, 2], rng=rng)
        backend.restore(token)
        assert np.allclose(backend.probabilities([0, 1, 2]), before)

    def test_restore_validates(self):
        backend = StabilizerBackend(2)
        with pytest.raises(ValueError):
            backend.restore("nonsense")
        with pytest.raises(ValueError):
            backend.restore(StabilizerBackend(3).snapshot())

    def test_sample_does_not_collapse(self, rng):
        backend = StabilizerBackend(2)
        backend.apply_gate("h", [0])
        probs = backend.probabilities([0]).copy()
        outcomes = backend.sample([0], shots=64, rng=rng)
        assert set(int(v) for v in outcomes) == {0, 1}
        assert np.allclose(backend.probabilities([0]), probs)

    def test_measure_collapses(self, rng):
        backend = StabilizerBackend(2)
        backend.apply_gate("h", [0])
        backend.apply_controlled(gates.X, [0], [1])
        outcome = backend.measure([0, 1], rng=rng)
        assert outcome in (0, 3)
        assert backend.probabilities([0, 1])[outcome] == 1.0

    def test_ghz_distribution_at_40_qubits(self):
        backend = StabilizerBackend(40)
        backend.apply_gate("h", [0])
        for i in range(39):
            backend.apply_controlled(gates.X, [i], [i + 1])
        distribution = backend.outcome_distribution(list(range(40)))
        assert distribution == {0: 0.5, (1 << 40) - 1: 0.5}

    def test_dense_probabilities_guard(self):
        backend = StabilizerBackend(24)
        with pytest.raises(ValueError, match="materialisation limit"):
            backend.probabilities()


class TestAgainstStatevector:
    """Random Clifford circuits must match the dense simulation exactly."""

    @pytest.mark.parametrize("trial", range(10))
    def test_distributions_match(self, trial):
        rng = np.random.default_rng(SEED + trial)
        num_qubits = int(rng.integers(2, 6))
        sv, tableau = _random_clifford_pair(rng, num_qubits)
        assert np.allclose(
            tableau.probabilities(), sv.probabilities(), atol=1e-9
        )
        subset = [int(q) for q in rng.permutation(num_qubits)[:2]]
        assert np.allclose(
            tableau.probabilities(subset), sv.probabilities(subset), atol=1e-9
        )

    @pytest.mark.parametrize("trial", range(10))
    def test_to_statevector_reconstruction(self, trial):
        rng = np.random.default_rng(SEED + 100 + trial)
        num_qubits = int(rng.integers(2, 6))
        sv, tableau = _random_clifford_pair(rng, num_qubits)
        assert tableau.to_statevector().equiv(sv, atol=1e-9)


class TestHybridBackend:
    def test_stays_on_tableau_for_clifford(self):
        backend = HybridCliffordBackend(3)
        backend.apply_gate("h", [0])
        backend.apply_controlled(gates.X, [0], [1])
        assert backend.stage == "tableau"
        assert backend.conversions == 0
        assert backend.statevector_gates_applied == 0

    def test_converts_once_at_first_non_clifford_gate(self):
        backend = HybridCliffordBackend(2)
        backend.apply_gate("h", [0])
        backend.apply_gate("t", [0])
        assert backend.stage == "statevector"
        assert backend.conversions == 1
        backend.apply_gate("t", [0])
        backend.apply_gate("h", [0])
        assert backend.conversions == 1
        assert backend.gates_applied == 4
        assert backend.statevector_gates_applied == 3

    def test_converted_state_matches_dense_run(self):
        backend = HybridCliffordBackend(2)
        reference = Statevector(2)
        for apply in (
            lambda b: b.apply_matrix(gates.H, [0]),
            lambda b: b.apply_controlled(gates.X, [0], [1]),
            lambda b: b.apply_matrix(gates.T, [1]),
            lambda b: b.apply_controlled(gates.rz(0.4), [1], [0]),
        ):
            apply(backend)
            apply(reference)
        assert backend.to_statevector().equiv(reference, atol=1e-9)

    def test_snapshot_restore_across_stages(self, rng):
        backend = HybridCliffordBackend(2)
        backend.apply_gate("h", [0])
        token = backend.snapshot()  # tableau-stage token
        backend.apply_gate("t", [0])  # converts
        assert backend.stage == "statevector"
        backend.restore(token)
        assert backend.stage == "tableau"
        assert np.allclose(backend.probabilities([0]), [0.5, 0.5])

    def test_wide_mixed_program_error_names_the_routing(self):
        backend = HybridCliffordBackend(26)
        backend.apply_gate("h", [0])
        with pytest.raises(ValueError, match="backend='auto'.*conversion"):
            backend.apply_gate("t", [0])

    def test_non_basis_initial_state_starts_dense(self):
        state = Statevector.uniform_superposition(2)
        backend = HybridCliffordBackend().initialize(2, initial_state=state)
        assert backend.stage == "statevector"
        assert np.allclose(backend.probabilities(), np.full(4, 0.25))

    def test_program_simulate_through_auto(self):
        program = Program()
        q = program.qreg("q", 2)
        program.h(q[0]).cnot(q[0], q[1]).t(q[1])
        auto_state = program.simulate(backend="auto")
        dense_state = program.simulate(backend="statevector")
        assert auto_state.equiv(dense_state, atol=1e-9)


class TestPlanMetadata:
    def test_clifford_plan_flags(self):
        plan = build_execution_plan(build_ghz_chain_program(6))
        assert plan.is_clifford
        assert plan.clifford_prefix_segments == plan.num_breakpoints
        assert plan.clifford_prefix_gates == plan.total_gates
        assert all(s.is_clifford for s in plan.segments)

    def test_mixed_plan_boundary(self):
        program = Program()
        q = program.qreg("q", 2)
        program.h(q[0])
        program.assert_superposition([q[0]], label="clifford breakpoint")
        program.cnot(q[0], q[1])
        program.t(q[1])
        program.h(q[1])
        program.assert_entangled([q[0]], [q[1]], label="mixed breakpoint")
        plan = build_execution_plan(program)
        assert not plan.is_clifford
        assert plan.clifford_prefix_segments == 1
        assert plan.segments[0].is_clifford
        assert not plan.segments[1].is_clifford
        assert plan.segments[1].clifford_prefix == 1  # the cnot before the t
        assert plan.clifford_prefix_gates == 2  # h + cnot

    def test_segment_describe_mentions_regime(self):
        plan = build_execution_plan(build_ghz_chain_program(4))
        assert "clifford" in plan.segments[0].describe()


class TestCheckerIntegration:
    @pytest.mark.parametrize("name", sorted(CLIFFORD_SCENARIOS))
    def test_cross_backend_verdict_matrix(self, name):
        """statevector / density / stabilizer / auto agree verdict-for-verdict."""
        scenario = CLIFFORD_SCENARIOS[name]
        for build in (scenario.build_correct, scenario.build_buggy):
            program = build()
            verdicts = {}
            for backend in ("statevector", "density", "stabilizer", "auto"):
                report = check_program(
                    program,
                    RunConfig(
                        ensemble_size=scenario.ensemble_size,
                        seed=SEED,
                        backend=backend,
                    ),
                )
                verdicts[backend] = [r.outcome.passed for r in report.records]
            assert (
                verdicts["statevector"]
                == verdicts["density"]
                == verdicts["stabilizer"]
                == verdicts["auto"]
            ), verdicts

    @pytest.mark.parametrize("name", sorted(CLIFFORD_SCENARIOS))
    def test_deep_workloads_beyond_statevector_reach(self, name):
        """>= 24-qubit Clifford workloads complete with correct verdicts."""
        scenario = CLIFFORD_SCENARIOS[name]
        assert scenario.deep_qubits >= 24
        correct = check_program(
            scenario.build_correct(scenario.deep_qubits),
            RunConfig(
                ensemble_size=scenario.ensemble_size,
                seed=SEED,
                backend="stabilizer",
            ),
        )
        assert correct.passed
        buggy = check_program(
            scenario.build_buggy(scenario.deep_qubits),
            RunConfig(
                ensemble_size=scenario.ensemble_size,
                seed=SEED,
                backend="stabilizer",
            ),
        )
        assert not buggy.passed
        caught = {
            r.outcome.assertion_type for r in buggy.records if not r.outcome.passed
        }
        assert scenario.catching_assertion in caught

    def test_deep_ghz_through_auto_routes_to_tableau(self):
        # An all-Clifford plan must never build a statevector under "auto".
        program = build_ghz_chain_program(32)
        plan = build_execution_plan(program)
        executor = BreakpointExecutor(
            RunConfig(ensemble_size=32, seed=SEED, backend="auto"),
        )
        measurements = executor.run_plan(plan)
        assert executor.statevector_gates_applied == 0
        assert len(measurements) == plan.num_breakpoints

    def test_hybrid_identical_to_statevector_on_shor(self):
        """Verdict- and ensemble-identity plus strictly fewer dense gates."""
        from repro.algorithms.shor import build_shor_program

        plan = build_execution_plan(
            build_shor_program(assert_each_iteration=True).program
        )
        assert not plan.is_clifford
        assert plan.clifford_prefix_gates > 0

        hybrid = BreakpointExecutor(
            RunConfig(ensemble_size=32, seed=SEED, backend="auto"),
        )
        hybrid_measurements = hybrid.run_plan(plan)
        dense = BreakpointExecutor(
            RunConfig(ensemble_size=32, seed=SEED, backend="statevector"),
        )
        dense_measurements = dense.run_plan(plan)

        for ours, theirs in zip(hybrid_measurements, dense_measurements):
            assert list(ours.joint.samples) == list(theirs.joint.samples)
        assert hybrid.gates_applied == dense.gates_applied
        assert hybrid.statevector_gates_applied < dense.statevector_gates_applied

    def test_hybrid_identity_on_non_clifford_bug_scenario(self):
        """Hybrid matches statevector verdicts on a non-Clifford bug pair."""
        from repro.bugs import BUG_SCENARIOS

        scenario = BUG_SCENARIOS["flipped_rotation_angles"]
        for build in (scenario.build_correct, scenario.build_buggy):
            program = build()
            auto_report = check_program(
                program,
                RunConfig(ensemble_size=32, seed=SEED, backend="auto"),
            )
            dense_report = check_program(
                program,
                RunConfig(ensemble_size=32, seed=SEED, backend="statevector"),
            )
            assert [r.outcome.passed for r in auto_report.records] == [
                r.outcome.passed for r in dense_report.records
            ]

    def test_rerun_mode_on_stabilizer(self):
        program = build_ghz_chain_program(5)
        report = check_program(
            program,
            RunConfig(ensemble_size=16, seed=SEED, backend="stabilizer", mode="rerun"),
        )
        assert report.passed


class TestWorkloadBuilders:
    def test_ghz_minimum_width(self):
        with pytest.raises(ValueError):
            build_ghz_chain_program(2)

    def test_teleport_hops_scale_width(self):
        program = build_teleportation_program(num_hops=3)
        assert program.num_qubits == 7

    def test_repetition_code_layout(self):
        program = build_repetition_code_program(num_data=5)
        assert program.num_qubits == 9  # 5 data + 4 syndrome
        plan = build_execution_plan(program)
        assert plan.is_clifford
