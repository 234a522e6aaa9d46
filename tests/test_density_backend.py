"""Tests for the density-matrix backend and the Kraus noise-channel layer.

Three cross-validation axes:

* noiseless density == statevector probabilities (to 1e-10) on both the pure
  fast path and the forced-dense representation;
* the backend's partial trace == :mod:`repro.sim.density`'s exact
  reduced-density-matrix ground truth;
* the checker produces verdicts identical to the statevector backend on every
  bug-catalog scenario in the noiseless limit (fixed seed).
"""

import numpy as np
import pytest

from repro.bugs import BUG_SCENARIOS
from repro.compiler import BreakpointExecutor, build_execution_plan
from repro.core import RunConfig, check_program
from repro.lang import Program
from repro.sim import (
    DensityMatrix,
    DensityMatrixBackend,
    NoiseModel,
    ReadoutErrorModel,
    Statevector,
    StatevectorBackend,
    amplitude_damping,
    bit_flip,
    bit_phase_flip,
    depolarizing,
    gates,
    make_backend,
    phase_flip,
    reduced_density_matrix,
)

SEED = 20190622


def _bell_program() -> Program:
    program = Program("bell")
    q = program.qreg("q", 2)
    program.h(q[0])
    program.cnot(q[0], q[1])
    program.assert_entangled([q[0]], [q[1]], label="pair")
    return program


def _mixed_workload(backend) -> None:
    """A small circuit touching 1q, parameterised and controlled gates."""
    backend.apply_gate("h", [0])
    backend.apply_controlled(gates.X, [0], [1])
    backend.apply_gate("t", [2])
    backend.apply_gate("ry", [2], 0.7)
    backend.apply_controlled(gates.rz(0.3), [2], [0])
    backend.apply_matrix(gates.SWAP, [1, 2])


class TestRegistryAndContract:
    def test_registered_under_density(self):
        backend = make_backend("density")
        assert isinstance(backend, DensityMatrixBackend)
        assert backend.name == "density"
        assert backend.supports_readout_noise

    def test_requires_initialisation(self):
        backend = DensityMatrixBackend()
        with pytest.raises(RuntimeError):
            backend.probabilities()

    def test_initialize_from_statevector_copies(self):
        initial = Statevector.from_label("10")
        backend = DensityMatrixBackend().initialize(2, initial_state=initial)
        assert backend.probabilities()[2] == pytest.approx(1.0)
        backend.apply_gate("x", [0])
        assert initial.probabilities()[2] == pytest.approx(1.0)

    def test_initialize_wrong_size_raises(self):
        with pytest.raises(ValueError):
            DensityMatrixBackend().initialize(3, initial_state=Statevector(2))

    def test_gate_counter(self):
        backend = DensityMatrixBackend(2)
        backend.apply_gate("h", [0])
        backend.apply_controlled(gates.X, [0], [1])
        backend.apply_matrix(gates.SWAP, [0, 1])
        assert backend.gates_applied == 3
        backend.densify()
        backend.apply_gate("x", [0])
        assert backend.gates_applied == 4

    def test_dense_path_validates_operands(self):
        backend = DensityMatrixBackend(2).densify()
        with pytest.raises(ValueError):
            backend.apply_matrix(gates.X, [5])
        with pytest.raises(ValueError):
            backend.apply_matrix(gates.SWAP, [0])
        with pytest.raises(ValueError):
            backend.apply_controlled(gates.X, [0], [0])

    def test_snapshot_restore_roundtrip_pure(self, rng):
        backend = DensityMatrixBackend(2)
        backend.apply_gate("h", [0])
        backend.apply_controlled(gates.X, [0], [1])
        before = backend.probabilities().copy()
        token = backend.snapshot()
        backend.measure([0, 1], rng=rng)
        assert np.max(backend.probabilities()) == pytest.approx(1.0)
        backend.restore(token)
        assert np.allclose(backend.probabilities(), before)
        backend.measure([0, 1], rng=rng)
        backend.restore(token)  # the token survives multiple restores
        assert np.allclose(backend.probabilities(), before)

    def test_snapshot_restore_crosses_the_densify_boundary(self):
        backend = DensityMatrixBackend(2)
        backend.apply_gate("h", [0])
        token = backend.snapshot()
        backend.apply_channel(bit_flip(0.5), [0])
        assert not backend.is_pure_representation
        dense_token = backend.snapshot()
        backend.restore(token)
        assert backend.is_pure_representation
        assert np.allclose(backend.probabilities([0]), [0.5, 0.5])
        backend.restore(dense_token)
        assert not backend.is_pure_representation

    def test_restore_rejects_foreign_tokens(self):
        backend = DensityMatrixBackend(2)
        with pytest.raises(ValueError):
            backend.restore(np.zeros(4, dtype=complex))
        with pytest.raises(ValueError):
            backend.restore(("pure", np.zeros(2, dtype=complex)))
        with pytest.raises(ValueError):
            backend.restore(("rho", np.zeros((2, 2), dtype=complex)))

    def test_sample_does_not_collapse(self, rng):
        backend = DensityMatrixBackend(2).densify()
        backend.apply_gate("h", [0])
        probs = backend.probabilities().copy()
        outcomes = backend.sample([0], shots=64, rng=rng)
        assert set(int(v) for v in outcomes) == {0, 1}
        assert np.allclose(backend.probabilities(), probs)

    def test_measure_collapses_dense_state(self, rng):
        backend = DensityMatrixBackend(2).densify()
        backend.apply_gate("h", [0])
        backend.apply_controlled(gates.X, [0], [1])
        outcome = backend.measure([0, 1], rng=rng)
        assert outcome in (0b00, 0b11)  # Bell state: perfectly correlated
        assert backend.probabilities()[outcome] == pytest.approx(1.0)
        assert backend.purity() == pytest.approx(1.0)


class TestNoiselessCrossValidation:
    """Noiseless density == statevector probabilities to 1e-10."""

    @pytest.mark.parametrize("dense", [False, True])
    def test_probabilities_match_statevector(self, dense):
        reference = StatevectorBackend(3)
        backend = DensityMatrixBackend(3)
        if dense:
            backend.densify()
        _mixed_workload(reference)
        _mixed_workload(backend)
        assert np.allclose(
            backend.probabilities(), reference.probabilities(), atol=1e-10
        )
        assert np.allclose(
            backend.probabilities([2, 0]),
            reference.probabilities([2, 0]),
            atol=1e-10,
        )

    def test_program_simulate_routes_through_density(self):
        program = Program()
        q = program.qreg("q", 2)
        program.h(q[0])
        program.cnot(q[0], q[1])
        state = program.simulate(backend="density")
        assert np.allclose(state.probabilities(), [0.5, 0, 0, 0.5], atol=1e-10)

    def test_unitary_through_density_backend(self):
        program = Program()
        q = program.qreg("q", 1)
        program.h(q[0])
        assert np.allclose(program.unitary(backend="density"), gates.H, atol=1e-10)

    def test_dense_unitary_evolution_matches_matmul(self, rng):
        """U rho U^dagger via the two-sided kernel == explicit matmul."""
        dim = 8
        random = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        unitary = np.linalg.qr(random)[0]
        amplitudes = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amplitudes /= np.linalg.norm(amplitudes)
        backend = DensityMatrixBackend().initialize(
            3, initial_state=Statevector(3, amplitudes)
        )
        backend.densify()
        backend.apply_matrix(unitary, [0, 1, 2])
        rho = np.outer(amplitudes, amplitudes.conj())
        expected = unitary @ rho @ unitary.conj().T
        assert np.allclose(backend.to_density_matrix().data, expected, atol=1e-12)

    def test_dense_controlled_matches_dense_controlled_unitary(self, rng):
        amplitudes = rng.normal(size=8) + 1j * rng.normal(size=8)
        amplitudes /= np.linalg.norm(amplitudes)
        base = np.linalg.qr(
            rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        )[0]
        backend = DensityMatrixBackend().initialize(
            3, initial_state=Statevector(3, amplitudes)
        )
        backend.densify()
        backend.apply_controlled(base, [2, 0], [1])
        reference = Statevector(3, amplitudes.copy())
        reference.apply_controlled(base, [2, 0], [1])
        expected = np.outer(reference.data, reference.data.conj())
        assert np.allclose(backend.to_density_matrix().data, expected, atol=1e-12)

    def test_to_statevector_of_pure_dense_state(self):
        backend = DensityMatrixBackend(2).densify()
        backend.apply_gate("h", [0])
        backend.apply_controlled(gates.X, [0], [1])
        recovered = backend.to_statevector()
        bell = Statevector(2)
        bell.apply_matrix(gates.H, [0]).apply_controlled(gates.X, [0], [1])
        assert recovered.equiv(bell, atol=1e-9)

    def test_to_statevector_raises_on_mixed_state(self):
        backend = DensityMatrixBackend(1)
        backend.apply_channel(bit_flip(0.5), [0])
        with pytest.raises(ValueError, match="mixed"):
            backend.to_statevector()


class TestReducedDensityMatrixGroundTruth:
    """Backend partial trace == repro.sim.density exact ground truth."""

    @pytest.mark.parametrize("keep", [[0], [1], [2], [0, 2], [2, 0], [0, 1, 2]])
    @pytest.mark.parametrize("dense", [False, True])
    def test_matches_pure_state_partial_trace(self, keep, dense):
        backend = DensityMatrixBackend(3)
        if dense:
            backend.densify()
        _mixed_workload(backend)
        reference_state = Statevector(3)
        _mixed_workload(StatevectorBackendView(reference_state))
        truth = reduced_density_matrix(reference_state, keep)
        ours = backend.reduced_density_matrix(keep)
        assert np.allclose(ours.data, truth.data, atol=1e-10)
        assert ours.is_valid(atol=1e-8)

    def test_mixed_state_partial_trace_traces_to_identity_marginal(self):
        backend = DensityMatrixBackend(2)
        backend.apply_gate("h", [0])
        backend.apply_controlled(gates.X, [0], [1])
        backend.apply_channel(depolarizing(1.0), [0])
        reduced = backend.reduced_density_matrix([0])
        # Full depolarisation leaves the maximally mixed marginal.
        assert np.allclose(reduced.data, np.eye(2) / 2, atol=1e-10)

    def test_validates_keep_list(self):
        backend = DensityMatrixBackend(2)
        with pytest.raises(ValueError):
            backend.reduced_density_matrix([0, 0])
        with pytest.raises(ValueError):
            backend.reduced_density_matrix([4])


class StatevectorBackendView:
    """Adapter so _mixed_workload can drive a bare Statevector."""

    def __init__(self, state: Statevector):
        self._state = state

    def apply_gate(self, name, qubits, *params):
        self._state.apply_gate(name, qubits, *params)

    def apply_matrix(self, matrix, qubits):
        self._state.apply_matrix(matrix, qubits)

    def apply_controlled(self, matrix, controls, targets):
        self._state.apply_controlled(matrix, controls, targets)


class TestKrausChannels:
    def test_completeness_is_enforced(self):
        from repro.sim import KrausChannel

        with pytest.raises(ValueError, match="trace preserving"):
            KrausChannel(name="leaky", operators=(0.5 * gates.I,))
        with pytest.raises(ValueError):
            KrausChannel(name="empty", operators=())

    def test_probability_validation(self):
        for factory in (bit_flip, phase_flip, bit_phase_flip, depolarizing,
                        amplitude_damping):
            with pytest.raises(ValueError):
                factory(1.5)

    def test_operators_are_copied_and_frozen(self):
        """Caller-side mutation must not invalidate the completeness check."""
        from repro.sim import KrausChannel

        source = np.eye(2, dtype=complex)
        channel = KrausChannel(name="id", operators=(source,))
        source[0, 0] = 5.0  # the channel keeps its own validated copy
        assert np.allclose(channel.operators[0], np.eye(2))
        with pytest.raises((ValueError, RuntimeError)):
            channel.operators[0][0, 0] = 5.0

    def test_amplitude_damping_relaxes_excited_state(self):
        backend = DensityMatrixBackend(1)
        backend.apply_gate("x", [0])
        backend.apply_channel(amplitude_damping(0.3), [0])
        assert np.allclose(backend.probabilities(), [0.3, 0.7], atol=1e-12)

    def test_amplitude_damping_fixes_ground_state(self):
        backend = DensityMatrixBackend(1)
        backend.apply_channel(amplitude_damping(0.9), [0])
        assert np.allclose(backend.probabilities(), [1.0, 0.0], atol=1e-12)

    def test_depolarizing_mixes_towards_identity(self):
        backend = DensityMatrixBackend(1)
        backend.apply_channel(depolarizing(0.3), [0])
        # X and Y errors (p/3 each) move |0> to |1>.
        assert np.allclose(backend.probabilities(), [0.8, 0.2], atol=1e-12)
        # (1-p) rho + p/3 sum P rho P = (1 - 4p/3) rho + (2p/3) I: the map is
        # completely depolarising at p = 3/4.
        full = DensityMatrixBackend(1)
        full.apply_gate("h", [0])
        full.apply_channel(depolarizing(0.75), [0])
        assert np.allclose(full.to_density_matrix().data, np.eye(2) / 2, atol=1e-12)

    def test_bit_and_phase_flips(self):
        backend = DensityMatrixBackend(1)
        backend.apply_channel(bit_flip(0.25), [0])
        assert np.allclose(backend.probabilities(), [0.75, 0.25], atol=1e-12)
        # Phase flip leaves populations alone but kills coherences.
        backend = DensityMatrixBackend(1)
        backend.apply_gate("h", [0])
        backend.apply_channel(phase_flip(0.5), [0])
        rho = backend.to_density_matrix().data
        assert np.allclose(np.diag(rho), [0.5, 0.5], atol=1e-12)
        assert abs(rho[0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_channel_matches_dense_reference_application(self, rng):
        channel = amplitude_damping(0.37)
        amplitudes = rng.normal(size=4) + 1j * rng.normal(size=4)
        amplitudes /= np.linalg.norm(amplitudes)
        backend = DensityMatrixBackend().initialize(
            2, initial_state=Statevector(2, amplitudes)
        )
        backend.apply_channel(channel, [1])
        rho = np.outer(amplitudes, amplitudes.conj())
        # Reference: lift the 1q Kraus operators to qubit 1 explicitly.
        expected = sum(
            np.kron(op, np.eye(2)) @ rho @ np.kron(op, np.eye(2)).conj().T
            for op in channel.operators
        )
        assert np.allclose(backend.to_density_matrix().data, expected, atol=1e-12)

    def test_purity_decreases_under_noise(self):
        backend = DensityMatrixBackend(1)
        backend.apply_gate("h", [0])
        assert backend.purity() == pytest.approx(1.0)
        backend.apply_channel(depolarizing(0.5), [0])
        assert backend.purity() < 1.0
        assert backend.to_density_matrix().is_valid(atol=1e-9)

    def test_channel_arity_checked(self):
        backend = DensityMatrixBackend(2)
        with pytest.raises(ValueError, match="acts on"):
            backend.apply_channel(bit_flip(0.1), [0, 1])


class TestNoiseModel:
    def test_gate_noise_applied_to_touched_qubits(self):
        model = NoiseModel.from_channels(bit_flip(0.1))
        backend = DensityMatrixBackend(2, noise=model)
        backend.apply_gate("x", [0])
        assert not backend.is_pure_representation
        # Qubit 0 saw X then the flip channel; qubit 1 was untouched.
        assert np.allclose(backend.probabilities([0]), [0.1, 0.9], atol=1e-12)
        assert np.allclose(backend.probabilities([1]), [1.0, 0.0], atol=1e-12)

    def test_controlled_gates_decohere_controls_too(self):
        model = NoiseModel.from_channels(phase_flip(0.5))
        backend = DensityMatrixBackend(2, noise=model)
        backend.apply_gate("h", [0])  # noise on qubit 0 kills its coherence
        rho = backend.reduced_density_matrix([0]).data
        assert abs(rho[0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_accepts_two_qubit_rejects_wider_gate_channels(self):
        from repro.sim import KrausChannel

        two_qubit_identity = KrausChannel(
            name="id2", operators=(np.eye(4, dtype=complex),)
        )
        model = NoiseModel(gate_channels=(two_qubit_identity,))
        assert model.gate_channels[0].num_qubits == 2
        three_qubit_identity = KrausChannel(
            name="id3", operators=(np.eye(8, dtype=complex),)
        )
        with pytest.raises(ValueError, match="one or two"):
            NoiseModel(gate_channels=(three_qubit_identity,))

    def test_noise_model_readout_seeds_backend(self):
        model = NoiseModel(readout=ReadoutErrorModel(p01=0.25))
        backend = DensityMatrixBackend(1, noise=model)
        assert np.allclose(backend.readout_probabilities(), [0.75, 0.25])

    def test_ideal_flag(self):
        assert NoiseModel().is_ideal
        assert not NoiseModel.from_channels(bit_flip(0.1)).is_ideal
        assert not NoiseModel(readout=ReadoutErrorModel(p01=0.1)).is_ideal


class TestNativeReadoutPath:
    def test_readout_probabilities_are_exact_and_state_untouched(self):
        backend = DensityMatrixBackend(
            1, readout_error=ReadoutErrorModel(p01=0.2, p10=0.1)
        )
        assert np.allclose(backend.probabilities(), [1.0, 0.0])
        assert np.allclose(backend.readout_probabilities(), [0.8, 0.2])
        backend.apply_gate("x", [0])
        assert np.allclose(backend.readout_probabilities(), [0.1, 0.9])
        assert backend.is_pure_representation  # readout noise never densifies

    def test_sample_draws_from_noisy_distribution(self):
        backend = DensityMatrixBackend(
            1, readout_error=ReadoutErrorModel(p01=1.0, p10=0.0)
        )
        outcomes = backend.sample([0], shots=32, rng=SEED)
        assert all(int(v) == 1 for v in outcomes)

    def test_measure_stays_ideal_under_readout_noise(self):
        """Readout error is a sampling-path effect: projective collapse (the
        thing mid-circuit PrepZ resets rely on) reports the true outcome on
        every backend."""
        backend = DensityMatrixBackend(
            1, readout_error=ReadoutErrorModel(p01=1.0, p10=1.0)
        )
        outcome = backend.measure([0], rng=SEED)
        assert outcome == 0
        assert backend.probabilities()[0] == pytest.approx(1.0)
        backend.densify()
        assert backend.measure([0], rng=SEED) == 0

    def test_rerun_mode_keeps_classical_corruption_semantics(self):
        """In rerun mode the density backend matches the statevector path:
        per-member collapse then classical corruption of the reports."""
        program = Program("classical")
        q = program.qreg("q", 1)
        program.prep_z(q[0], 0)
        program.assert_classical([q[0]], 0, label="zero")
        model = ReadoutErrorModel(p01=1.0, p10=0.0)
        results = {}
        for backend in ("statevector", "density"):
            executor = BreakpointExecutor(
                RunConfig(
                    ensemble_size=8,
                    seed=SEED,
                    mode="rerun",
                    readout_error=model,
                    backend=backend,
                ),
            )
            (measurements,) = executor.run_plan(build_execution_plan(program))
            results[backend] = measurements.joint.samples
        assert results["statevector"] == results["density"] == [1] * 8

    def test_executor_installs_readout_model_once(self):
        program = Program("classical")
        q = program.qreg("q", 1)
        program.prep_z(q[0], 0)
        program.assert_classical([q[0]], 0, label="zero")
        executor = BreakpointExecutor(
            RunConfig(
                ensemble_size=16,
                seed=SEED,
                readout_error=ReadoutErrorModel(p01=1.0, p10=0.0),
                backend="density",
            ),
        )
        (measurements,) = executor.run_plan(build_execution_plan(program))
        # A deterministic full flip: every member reads 1, exactly once —
        # double corruption (native + executor) would read 0 again.
        assert measurements.joint.samples == [1] * 16

    def test_executor_restores_callers_backend_readout_model(self):
        """A shared backend instance must not keep an executor's readout
        noise after the run: a later ideal-readout executor on the same
        instance has to see ideal distributions again."""
        program = _bell_program()
        plan = build_execution_plan(program)
        shared = DensityMatrixBackend()
        noisy = BreakpointExecutor(
            RunConfig(
                ensemble_size=8,
                seed=SEED,
                readout_error=ReadoutErrorModel(p01=0.4, p10=0.4),
                backend=shared,
            ),
        )
        noisy.run_plan(plan)
        assert shared.readout_error.is_ideal  # installation was undone
        ideal = BreakpointExecutor(
            RunConfig(ensemble_size=4000, seed=SEED, backend=shared),
        )
        (measurements,) = ideal.run_plan(plan)
        distribution = measurements.joint.empirical_distribution()
        assert distribution[1] + distribution[2] == pytest.approx(0.0)

    def test_executor_preserves_user_configured_backend_noise(self):
        """The executor's installation must put back the *user's* model, not
        clobber it with the ideal default."""
        program = _bell_program()
        plan = build_execution_plan(program)
        users_model = ReadoutErrorModel(p01=0.25, p10=0.0)
        shared = DensityMatrixBackend(readout_error=users_model)
        executor = BreakpointExecutor(
            RunConfig(
                ensemble_size=8,
                seed=SEED,
                readout_error=ReadoutErrorModel(p01=0.4, p10=0.4),
                backend=shared,
            ),
        )
        executor.run_plan(plan)
        assert shared.readout_error == users_model

    def test_native_and_corrupting_paths_agree_statistically(self):
        """Exact density readout vs statevector per-sample corruption."""
        program = _bell_program()
        model = ReadoutErrorModel(p01=0.1, p10=0.1)
        shots = 4000

        native = BreakpointExecutor(
            RunConfig(
                ensemble_size=shots,
                seed=SEED,
                readout_error=model,
                backend="density",
            ),
        )
        (native_measurements,) = native.run_plan(build_execution_plan(program))

        corrupting = BreakpointExecutor(
            RunConfig(
                ensemble_size=shots,
                seed=SEED,
                readout_error=model,
                backend="statevector",
            ),
        )
        (corrupt_measurements,) = corrupting.run_plan(build_execution_plan(program))

        native_dist = native_measurements.joint.empirical_distribution()
        corrupt_dist = corrupt_measurements.joint.empirical_distribution()
        assert np.allclose(native_dist, corrupt_dist, atol=0.03)
        # And both match the analytic noisy Bell distribution.
        analytic = model.apply_to_distribution(
            np.array([0.5, 0.0, 0.0, 0.5]), num_bits=2
        )
        assert np.allclose(native_dist, analytic, atol=0.03)


class TestCheckerIntegration:
    """Acceptance criterion: identical verdicts on every bug-catalog scenario."""

    @pytest.mark.parametrize("name", sorted(BUG_SCENARIOS))
    @pytest.mark.parametrize("variant", ["correct", "buggy"])
    def test_noiseless_verdicts_match_statevector(self, name, variant):
        scenario = BUG_SCENARIOS[name]
        build = scenario.build_correct if variant == "correct" else scenario.build_buggy
        program = build()
        ensemble_size = scenario.ensemble_size or 16
        statevector_report = check_program(
            program,
            RunConfig(ensemble_size=ensemble_size, seed=SEED, backend="statevector"),
        )
        density_report = check_program(
            program,
            RunConfig(ensemble_size=ensemble_size, seed=SEED, backend="density"),
        )
        assert [r.outcome.passed for r in statevector_report.records] == [
            r.outcome.passed for r in density_report.records
        ]
        assert statevector_report.passed == density_report.passed

    def test_incremental_work_bound_holds_on_density(self):
        program = Program("chain")
        q = program.qreg("q", 2)
        for _ in range(5):
            for _ in range(4):
                program.h(q[0])
                program.cnot(q[0], q[1])
            program.assert_superposition([q[0]], label="block")
        plan = build_execution_plan(program)
        executor = BreakpointExecutor(
            RunConfig(ensemble_size=8, seed=SEED, backend="density"),
        )
        executor.run_plan(plan)
        assert executor.gates_applied == plan.total_gates == 40

    def test_noise_sweep_through_single_plan_walk(self):
        """One density walk per error rate yields noisy verdicts end to end."""
        program = _bell_program()
        for rate in (0.0, 0.01, 0.05):
            report = check_program(
                program,
                RunConfig(
                    ensemble_size=32,
                    seed=SEED,
                    backend="density",
                    readout_error=ReadoutErrorModel(p01=rate, p10=rate),
                ),
            )
            assert len(report.records) == 1

    def test_gate_noise_backend_factory_through_checker(self):
        """A noisy-machine factory plugs into the checker via backend=."""
        program = _bell_program()
        model = NoiseModel.from_channels(depolarizing(0.4))
        report = check_program(
            program,
            RunConfig(
                ensemble_size=64,
                seed=SEED,
                backend=lambda: DensityMatrixBackend(noise=model),
            ),
        )
        # Heavy depolarisation destroys the Bell correlation: the
        # entanglement assertion must fail against the noisy ensemble.
        assert not report.passed
