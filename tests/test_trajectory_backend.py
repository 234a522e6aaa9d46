"""Tests for the trajectory noise engine.

Covers Pauli-channel classification (`is_pauli` / `pauli_decomposition`),
the batched statevector kernels, the `TrajectoryNoiseBackend` contract,
Pauli frames on the stabilizer tableau (including the hybrid backend carrying
frames across the tableau->statevector conversion), executor noise routing
with `SeedSequence.spawn` rng streams, the convergence criterion, and the
seeded statistical-equivalence suite against density-exact distributions on
the small bug-catalog scenarios.
"""

import numpy as np
import pytest

from repro.bugs import BUG_SCENARIOS
from repro.compiler import BreakpointExecutor, build_execution_plan
from repro.core import (
    RunConfig,
    StatisticalAssertionChecker,
    category_standard_errors,
    check_program,
    chi_square_gof,
    ensemble_convergence,
    max_category_standard_error,
)
from repro.lang import Program
from repro.lang.program import run_instructions
from repro.sim import (
    DensityMatrixBackend,
    HybridCliffordBackend,
    KrausChannel,
    NoiseModel,
    PauliChannelSampler,
    PauliFrameSet,
    StabilizerBackend,
    StatevectorBackend,
    TrajectoryNoiseBackend,
    amplitude_damping,
    bit_flip,
    bit_phase_flip,
    depolarizing,
    gates,
    make_backend,
    phase_flip,
    spawn_trajectory_streams,
)
from repro.sim.kernels import (
    apply_controlled,
    apply_matrix,
    apply_pauli_batched,
    pauli_mask_kernel,
)
from repro.sim.noise import two_qubit_depolarizing
from repro.workloads import build_shor_noise_workload, gate_noise_sweep

SEED = 20190622

#: Bug-catalog scenarios small enough for density-exact noisy distributions.
SMALL_SCENARIOS = (
    "wrong_initial_value",
    "flipped_rotation_angles",
    "adder_iteration_off_by_one",
)


def _bell_program() -> Program:
    program = Program("bell")
    q = program.qreg("q", 2)
    program.h(q[0])
    program.cnot(q[0], q[1])
    program.assert_entangled([q[0]], [q[1]], label="pair")
    return program


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(matrix)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# Pauli-channel classification
# ---------------------------------------------------------------------------


class TestPauliClassification:
    def test_standard_pauli_channels_classify(self):
        for factory in (bit_flip, phase_flip, bit_phase_flip, depolarizing):
            assert factory(0.3).is_pauli

    def test_amplitude_damping_is_not_pauli(self):
        assert not amplitude_damping(0.3).is_pauli
        with pytest.raises(ValueError, match="not a Pauli mixture"):
            amplitude_damping(0.3).pauli_decomposition()

    def test_amplitude_damping_boundary_zero_is_identity(self):
        channel = amplitude_damping(0.0)
        assert len(channel.operators) == 1
        assert channel.is_pauli
        assert channel.pauli_decomposition().labels() == ("I",)

    def test_bit_flip_decomposition_weights(self):
        mixture = bit_flip(0.3).pauli_decomposition()
        assert mixture.labels() == ("I", "X")
        assert mixture.probabilities == pytest.approx((0.7, 0.3))

    def test_depolarizing_decomposition_weights(self):
        mixture = depolarizing(0.6).pauli_decomposition()
        weights = dict(zip(mixture.labels(), mixture.probabilities))
        assert weights["I"] == pytest.approx(0.4)
        for label in "XYZ":
            assert weights[label] == pytest.approx(0.2)

    def test_boundary_p_zero_builds_identity_channel(self):
        for factory in (bit_flip, phase_flip, bit_phase_flip, depolarizing):
            channel = factory(0.0)
            assert len(channel.operators) == 1
            assert channel.pauli_decomposition().labels() == ("I",)

    def test_boundary_p_one_kraus_weights(self):
        # p = 1 must not carry a zero-weight identity operator.
        assert len(bit_flip(1.0).operators) == 1
        assert bit_flip(1.0).pauli_decomposition().labels() == ("X",)
        assert phase_flip(1.0).pauli_decomposition().labels() == ("Z",)
        assert bit_phase_flip(1.0).pauli_decomposition().labels() == ("Y",)
        mixture = depolarizing(1.0).pauli_decomposition()
        assert len(mixture.probabilities) == 3
        assert mixture.probabilities == pytest.approx((1 / 3,) * 3)

    def test_probability_bounds_rejected(self):
        for bad in (-1e-9, 1.0 + 1e-9, float("nan")):
            with pytest.raises(ValueError, match="probability"):
                bit_flip(bad)

    def test_repr_carries_channel_name(self):
        assert "depolarizing(0.25)" in repr(depolarizing(0.25))
        assert "amplitude_damping(0.5)" in repr(amplitude_damping(0.5))

    def test_two_qubit_pauli_string_channel(self):
        xz = np.kron(gates.Z, gates.X)  # X on qubit 0, Z on qubit 1
        channel = KrausChannel(
            "xz", (np.sqrt(0.9) * np.eye(4), np.sqrt(0.1) * xz)
        )
        mixture = channel.pauli_decomposition()
        assert mixture.labels() == ("II", "ZX")
        assert mixture.probabilities == pytest.approx((0.9, 0.1))

    def test_non_pauli_kraus_operator_rejected(self):
        hadamard_mix = KrausChannel(
            "had", (np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * gates.H)
        )
        assert not hadamard_mix.is_pauli

    def test_phase_scaled_pauli_recognised(self):
        channel = KrausChannel(
            "phased",
            (np.sqrt(0.6) * gates.I, np.sqrt(0.4) * np.exp(0.3j) * gates.Y),
        )
        mixture = channel.pauli_decomposition()
        assert mixture.labels() == ("I", "Y")
        assert mixture.probabilities == pytest.approx((0.6, 0.4))

    def test_noise_model_is_pauli(self):
        assert NoiseModel.from_channels(depolarizing(0.1)).is_pauli
        assert not NoiseModel.from_channels(
            [bit_flip(0.1), amplitude_damping(0.1)]
        ).is_pauli
        assert NoiseModel().is_pauli  # vacuously

    def test_sampler_inverse_cdf(self):
        sampler = PauliChannelSampler(depolarizing(0.4).pauli_decomposition())
        # Components sorted by (x, z): I (0.6), Z, X, Y at 0.1333 each.
        uniforms = np.array([0.0, 0.59, 0.65, 0.78, 0.95, 1.0 - 1e-12])
        paulis = sampler.sample(uniforms)
        assert list(paulis) == [0, 0, 3, 1, 2, 2]


# ---------------------------------------------------------------------------
# Batched kernels
# ---------------------------------------------------------------------------


class TestBatchedKernels:
    def test_random_circuit_matches_per_member_statevector(self):
        rng = np.random.default_rng(7)
        num_qubits, batch = 4, 3
        stacked = np.zeros((batch, 1 << num_qubits), dtype=complex)
        members = []
        for b in range(batch):
            state = _random_unitary(rng, 1 << num_qubits)[:, 0]
            stacked[b] = state
            members.append(state.copy())
        for _ in range(25):
            k = int(rng.integers(1, 3))
            qubits = list(rng.choice(num_qubits, size=k, replace=False))
            matrix = _random_unitary(rng, 1 << k)
            if rng.random() < 0.5:
                free = [q for q in range(num_qubits) if q not in qubits]
                controls = [int(free[0])]
                apply_controlled(
                    stacked, num_qubits, matrix, controls, qubits
                )
                for member in members:
                    sv = StatevectorBackend(num_qubits)
                    sv._state.data[:] = member
                    sv.apply_controlled(matrix, controls, qubits)
                    member[:] = sv._state.data
            else:
                apply_matrix(stacked, num_qubits, matrix, qubits)
                for member in members:
                    sv = StatevectorBackend(num_qubits)
                    sv._state.data[:] = member
                    sv.apply_matrix(matrix, qubits)
                    member[:] = sv._state.data
        for b in range(batch):
            np.testing.assert_allclose(stacked[b], members[b], atol=1e-12)

    def test_apply_pauli_batched_matches_gate_matrices(self):
        rng = np.random.default_rng(11)
        num_qubits = 3
        paulis = np.array([0, 1, 2, 3])
        batch = np.stack(
            [_random_unitary(rng, 1 << num_qubits)[:, 0] for _ in range(4)]
        )
        expected = batch.copy()
        for qubit in range(num_qubits):
            apply_pauli_batched(batch, qubit, paulis)
            for member, pauli in enumerate(paulis):
                if pauli:
                    matrix = {1: gates.X, 2: gates.Y, 3: gates.Z}[int(pauli)]
                    sv = StatevectorBackend(num_qubits)
                    sv._state.data[:] = expected[member]
                    sv.apply_matrix(matrix, [qubit])
                    expected[member] = sv._state.data
            np.testing.assert_allclose(batch, expected, atol=1e-12)

    def test_pauli_mask_kernel_matches_kron_product(self):
        rng = np.random.default_rng(13)
        state = _random_unitary(rng, 8)[:, 0]
        # P = Y on qubit 0, Z on qubit 1, X on qubit 2 -> x=0b101, z=0b011.
        matrix = np.kron(np.kron(gates.X, gates.Z), gates.Y)
        expected = matrix @ state
        result = pauli_mask_kernel(state, 0b101, 0b011)
        np.testing.assert_allclose(result, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# TrajectoryNoiseBackend contract
# ---------------------------------------------------------------------------


class TestTrajectoryBackend:
    def test_registry_and_noiseless_single_member(self):
        backend = make_backend("trajectory")
        assert isinstance(backend, TrajectoryNoiseBackend)
        backend.initialize(2)
        backend.apply_matrix(gates.H, [0])
        backend.apply_controlled(gates.X, [0], [1])
        reference = StatevectorBackend(2)
        reference.apply_matrix(gates.H, [0])
        reference.apply_controlled(gates.X, [0], [1])
        np.testing.assert_allclose(
            backend.to_statevector().data, reference.to_statevector().data
        )

    def test_non_pauli_noise_rejected_at_construction(self):
        with pytest.raises(ValueError, match="Pauli"):
            TrajectoryNoiseBackend(noise=amplitude_damping(0.2))

    def test_deterministic_flip_channel(self):
        backend = TrajectoryNoiseBackend(
            2, noise=bit_flip(1.0), batch_size=5, seed=0
        )
        backend.apply_matrix(gates.X, [0])  # X then certain X -> |00>
        np.testing.assert_allclose(backend.probabilities(), [1, 0, 0, 0])

    def test_snapshot_restore_round_trip(self):
        backend = TrajectoryNoiseBackend(
            2, noise=depolarizing(0.3), batch_size=4, seed=1
        )
        backend.apply_matrix(gates.H, [0])
        token = backend.snapshot()
        before = backend.member_probabilities()
        backend.apply_matrix(gates.X, [1])
        backend.restore(token)
        np.testing.assert_allclose(backend.member_probabilities(), before)
        with pytest.raises(ValueError):
            backend.restore(np.zeros((3, 4)))

    def test_sample_per_member_vs_mixture(self):
        backend = TrajectoryNoiseBackend(
            1, noise=bit_flip(0.5), batch_size=64, seed=3
        )
        backend.apply_matrix(gates.I, [0])  # one noise event
        per_member = backend.sample([0], shots=64, rng=5)
        assert per_member.shape == (64,)
        # Per-member sampling of basis-state members is deterministic: the
        # sample equals each member's flip record.
        flips = backend.member_probabilities([0])[:, 1] > 0.5
        np.testing.assert_array_equal(per_member, flips.astype(int))
        mixture = backend.sample([0], shots=10, rng=5)
        assert mixture.shape == (10,)

    def test_measure_requires_single_member(self):
        backend = TrajectoryNoiseBackend(1, batch_size=2)
        with pytest.raises(RuntimeError, match="batch_size=1"):
            backend.measure([0], rng=0)
        single = TrajectoryNoiseBackend(1, batch_size=1)
        single.apply_matrix(gates.X, [0])
        assert single.measure([0], rng=0) == 1

    def test_prep_qubit_resets_each_member(self):
        backend = TrajectoryNoiseBackend(
            1, noise=bit_flip(0.5), batch_size=128, seed=9
        )
        backend.apply_matrix(gates.I, [0])  # half the members flip
        assert 0.2 < backend.probabilities([0])[1] < 0.8
        backend.prep_qubit(0, 0, rng=0)
        # Every member individually back at |0>... up to fresh prep noise,
        # which flips with probability 0.5 again -- so prep with a noiseless
        # model instead for the exactness check.
        clean = TrajectoryNoiseBackend(1, batch_size=128, seed=9)
        clean.initialize_from_members(  # adopt the diverged members
            np.stack([backend.member_statevector(m).data for m in range(128)])
        )
        clean.prep_qubit(0, 0, rng=0)
        np.testing.assert_allclose(clean.probabilities([0]), [1.0, 0.0])

    def test_prep_qubit_collapses_superposed_members(self):
        backend = TrajectoryNoiseBackend(1, batch_size=16, seed=2)
        backend.apply_matrix(gates.H, [0])
        backend.prep_qubit(0, 1, rng=4)
        np.testing.assert_allclose(backend.probabilities([0]), [0.0, 1.0])

    def test_to_statevector_guard(self):
        backend = TrajectoryNoiseBackend(1, batch_size=2)
        with pytest.raises(ValueError, match="ensemble"):
            backend.to_statevector()
        assert backend.member_statevector(1).num_qubits == 1

    def test_stream_validation(self):
        backend = TrajectoryNoiseBackend(1, batch_size=3)
        with pytest.raises(ValueError, match="rng streams"):
            backend.set_rng_streams(spawn_trajectory_streams(0, 2))
        with pytest.raises(TypeError):
            backend.set_rng_streams([0, 1, 2])

    def test_native_readout_noise(self):
        from repro.sim import ReadoutErrorModel

        backend = TrajectoryNoiseBackend(1, batch_size=4, seed=0)
        backend.set_readout_error(ReadoutErrorModel(p01=1.0))
        np.testing.assert_allclose(backend.readout_probabilities([0]), [0, 1])
        np.testing.assert_allclose(backend.probabilities([0]), [1, 0])


# ---------------------------------------------------------------------------
# Pauli frames on the stabilizer tableau
# ---------------------------------------------------------------------------


class TestStabilizerFrames:
    def _ghz_walk(self, backend):
        backend.apply_matrix(gates.H, [0])
        backend.apply_controlled(gates.X, [0], [1])
        backend.apply_controlled(gates.X, [1], [2])
        return backend

    def test_frames_match_trajectory_exactly_under_shared_streams(self):
        batch = 256
        noise = NoiseModel.from_channels(depolarizing(0.2))
        tableau = self._ghz_walk(
            StabilizerBackend(
                3, noise=noise, batch_size=batch,
                rng_streams=spawn_trajectory_streams(17, batch),
            )
        )
        dense = self._ghz_walk(
            TrajectoryNoiseBackend(
                3, noise=noise, batch_size=batch,
                rng_streams=spawn_trajectory_streams(17, batch),
            )
        )
        np.testing.assert_allclose(
            tableau.probabilities(), dense.probabilities(), atol=1e-12
        )
        # Identical streams give identical per-member *distributions*; the
        # two readout schemes (XOR-shifted base draw vs per-member inverse
        # CDF) are distribution-equivalent, not draw-identical, so check
        # each tableau sample lands in its member's support.
        samples = tableau.sample([0, 1, 2], shots=batch, rng=3)
        member_probs = dense.member_probabilities([0, 1, 2])
        for member, outcome in enumerate(samples):
            assert member_probs[member, outcome] > 1e-12

    def test_frame_conjugation_pushes_noise_through_gates(self):
        # An X injected before a CX must propagate to both qubits.
        noise = NoiseModel.from_channels(bit_flip(1.0))
        backend = StabilizerBackend(
            2, noise=noise, batch_size=1,
            rng_streams=spawn_trajectory_streams(0, 1),
        )
        backend.apply_matrix(gates.I, [0])  # certain X on qubit 0
        backend.noise = None
        backend._member_noise.samplers = ()
        backend.apply_controlled(gates.X, [0], [1])  # frame X propagates
        np.testing.assert_allclose(
            backend.probabilities(), [0, 0, 0, 1]  # |11>
        )

    def test_tableau_stays_noiseless_and_shared(self):
        noise = NoiseModel.from_channels(depolarizing(0.5))
        backend = self._ghz_walk(
            StabilizerBackend(24, noise=noise, batch_size=64, seed=5)
        )
        # The frames diverge but the tableau itself carries no noise:
        assert not backend.frames.is_identity
        assert backend.statevector_gates_applied == 0
        ideal = backend._tableau_probabilities([0, 1, 2])
        np.testing.assert_allclose(ideal[[0, 7]], [0.5, 0.5])

    def test_snapshot_restore_includes_frames(self):
        noise = NoiseModel.from_channels(bit_flip(0.4))
        backend = self._ghz_walk(
            StabilizerBackend(3, noise=noise, batch_size=8, seed=6)
        )
        token = backend.snapshot()
        assert len(token) == 5
        before = backend.probabilities()
        backend.apply_matrix(gates.X, [0])
        backend.restore(token)
        np.testing.assert_allclose(backend.probabilities(), before)
        noiseless = StabilizerBackend(3)
        assert len(noiseless.snapshot()) == 3
        with pytest.raises(ValueError, match="frame"):
            noiseless.restore(token)

    def test_measure_restricted_to_single_member(self):
        backend = StabilizerBackend(
            2, noise=bit_flip(0.3), batch_size=4, seed=0
        )
        backend.apply_matrix(gates.H, [0])
        with pytest.raises(RuntimeError, match="batch_size=1"):
            backend.measure([0], rng=0)

    def test_single_member_measure_reports_frame_adjusted_outcome(self):
        backend = StabilizerBackend(
            1, noise=bit_flip(1.0), batch_size=1, seed=0
        )
        backend.apply_matrix(gates.I, [0])  # certain flip in the frame
        assert backend.measure([0], rng=0) == 1

    def test_prep_qubit_corrects_through_frames(self):
        backend = StabilizerBackend(
            1, noise=bit_flip(1.0), batch_size=8, seed=1
        )
        backend.apply_matrix(gates.I, [0])  # all members flipped
        backend.noise = None
        backend._member_noise.samplers = ()
        backend.prep_qubit(0, 0, rng=0)
        np.testing.assert_allclose(backend.probabilities([0]), [1.0, 0.0])

    def test_to_statevector_guard_and_member_states(self):
        backend = StabilizerBackend(
            2, noise=bit_flip(1.0), batch_size=2, seed=0
        )
        backend.apply_matrix(gates.H, [0])
        with pytest.raises(ValueError, match="member_statevectors"):
            backend.to_statevector()
        rows, row_of = backend.member_statevectors()
        members = rows[row_of]
        assert members.shape == (2, 4)
        # Each member: (|0>+|1>)/sqrt2 with an X flip on qubit 0 -> unchanged
        # up to phase; probabilities must match the plus state.
        for member in members:
            np.testing.assert_allclose(
                np.abs(member) ** 2, [0.5, 0.5, 0.0, 0.0], atol=1e-12
            )


class TestPauliFrameSet:
    def test_conjugation_rules_match_matrix_conjugation(self):
        # For each Clifford op word and each Pauli, verify U P U^dagger
        # against the frame update (sign-free: compare |entries|).
        single = {
            "h": gates.H, "s": gates.S, "sdg": gates.S.conj().T,
            "x": gates.X, "y": gates.Y, "z": gates.Z,
        }
        paulis = {(0, 0): gates.I, (1, 0): gates.X, (1, 1): gates.Y, (0, 1): gates.Z}
        for name, unitary in single.items():
            for (x, z), pauli in paulis.items():
                frames = PauliFrameSet(1, 1)
                frames.x[0, 0], frames.z[0, 0] = x, z
                frames.apply_ops([(name, 0)], [0])
                conjugated = unitary @ pauli @ unitary.conj().T
                expected = paulis[(int(frames.x[0, 0]), int(frames.z[0, 0]))]
                ratio = conjugated @ np.linalg.inv(expected)
                np.testing.assert_allclose(
                    np.abs(ratio), np.eye(2), atol=1e-12
                )

    def test_cx_cz_conjugation(self):
        # CX control = qubit 0 (LSB): flips qubit 1 on |x1 1>, swapping
        # indices 1 and 3.
        cx = np.eye(4)[:, [0, 3, 2, 1]]
        cz = np.diag([1, 1, 1, -1])
        two_qubit = {"cx": cx, "cz": cz}
        labels = [(0, 0), (1, 0), (1, 1), (0, 1)]
        paulis = {(0, 0): gates.I, (1, 0): gates.X, (1, 1): gates.Y, (0, 1): gates.Z}
        # (x, z) label -> inject's 0=I / 1=X / 2=Y / 3=Z code
        codes = {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}
        for name, unitary in two_qubit.items():
            for low in labels:
                for high in labels:
                    frames = PauliFrameSet(1, 2)
                    frames.inject(0, np.array([codes[low]]))
                    frames.inject(1, np.array([codes[high]]))
                    frames.apply_ops([(name, 0, 1)], [0, 1])
                    pauli = np.kron(paulis[high], paulis[low])
                    conjugated = unitary @ pauli @ unitary.conj().T
                    expected = np.kron(
                        paulis[(int(frames.x_bits(1)[0]), int(frames.z_bits(1)[0]))],
                        paulis[(int(frames.x_bits(0)[0]), int(frames.z_bits(0)[0]))],
                    )
                    ratio = conjugated @ np.linalg.inv(expected)
                    np.testing.assert_allclose(
                        np.abs(ratio), np.eye(4), atol=1e-12
                    )

    def test_outcome_flips_and_masks(self):
        frames = PauliFrameSet(2, 3)
        frames.inject(0, np.array([1, 0]))  # member 0: X on qubit 0
        frames.inject(2, np.array([2, 3]))  # member 0: Y, member 1: Z on qubit 2
        flips = frames.outcome_flips([0, 2])
        assert list(flips) == [0b11, 0b00]
        x_masks, z_masks = frames.masks()
        assert list(x_masks) == [0b101, 0b000]
        assert list(z_masks) == [0b100, 0b100]


# ---------------------------------------------------------------------------
# Hybrid backend: frames across the conversion
# ---------------------------------------------------------------------------


class TestHybridFrames:
    def _mixed_walk(self, backend):
        backend.apply_matrix(gates.H, [0])
        backend.apply_controlled(gates.X, [0], [1])  # Clifford prefix
        backend.apply_matrix(gates.GATE_BUILDERS["rz"](np.pi / 4), [1])
        backend.apply_controlled(gates.X, [1], [2])  # dense tail
        return backend

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseModel.from_channels(depolarizing(0.15)),
            NoiseModel.from_channels([depolarizing(0.01)], importance_boost=0.15),
        ],
        ids=["plain", "importance_boost"],
    )
    def test_conversion_carries_frames(self, noise):
        batch = 128
        hybrid = self._mixed_walk(
            HybridCliffordBackend(
                3, noise=noise, batch_size=batch,
                rng_streams=spawn_trajectory_streams(23, batch),
            )
        )
        dense = self._mixed_walk(
            TrajectoryNoiseBackend(
                3, noise=noise, batch_size=batch,
                rng_streams=spawn_trajectory_streams(23, batch),
            )
        )
        assert hybrid.conversions == 1
        assert hybrid.stage == "statevector"
        assert 0 < hybrid.statevector_gates_applied < hybrid.gates_applied
        np.testing.assert_allclose(
            hybrid.probabilities(), dense.probabilities(), atol=1e-12
        )
        np.testing.assert_array_equal(
            hybrid.sample([0, 1, 2], shots=batch, rng=1),
            dense.sample([0, 1, 2], shots=batch, rng=1),
        )
        if noise.importance_boost is None:
            assert hybrid.member_weights() is None
        else:
            np.testing.assert_array_equal(
                hybrid.member_weights(), dense.member_weights()
            )

    def test_cross_stage_restore_rebuilds_noisy_stage(self):
        noise = NoiseModel.from_channels(bit_flip(0.2))
        backend = HybridCliffordBackend(2, noise=noise, batch_size=4, seed=3)
        backend.apply_matrix(gates.H, [0])
        tableau_token = backend.snapshot()
        backend.apply_matrix(gates.GATE_BUILDERS["rz"](0.3), [0])
        assert backend.stage == "statevector"
        backend.restore(tableau_token)
        assert backend.stage == "tableau"
        assert backend._engine.batch_size == 4


# ---------------------------------------------------------------------------
# Executor routing + rng streams
# ---------------------------------------------------------------------------


class TestExecutorRouting:
    @pytest.mark.parametrize(
        "backend,noise,expected",
        [
            (None, depolarizing(0.1), TrajectoryNoiseBackend),
            ("statevector", depolarizing(0.1), TrajectoryNoiseBackend),
            ("trajectory", depolarizing(0.1), TrajectoryNoiseBackend),
            ("stabilizer", bit_flip(0.1), StabilizerBackend),
            ("auto", bit_flip(0.1), StabilizerBackend),
            (None, amplitude_damping(0.1), DensityMatrixBackend),
            ("density", depolarizing(0.1), DensityMatrixBackend),
        ],
    )
    def test_noise_routing(self, backend, noise, expected):
        executor = BreakpointExecutor(
            RunConfig(ensemble_size=8, seed=0, backend=backend, noise=noise),
        )
        plan = build_execution_plan(_bell_program())
        engine = executor._new_backend(2, clifford=plan.is_clifford)
        assert isinstance(engine, expected)

    def test_mixed_auto_plan_routes_to_hybrid(self):
        executor = BreakpointExecutor(
            RunConfig(ensemble_size=8, seed=0, backend="auto", noise=depolarizing(0.1)),
        )
        engine = executor._new_backend(2, clifford=False)
        assert isinstance(engine, HybridCliffordBackend)

    def test_trajectory_spelling_rejects_non_pauli(self):
        executor = BreakpointExecutor(
            RunConfig(
                ensemble_size=8,
                backend="trajectory",
                noise=amplitude_damping(0.1),
            ),
        )
        with pytest.raises(ValueError, match="Pauli"):
            executor._new_backend(2)

    def test_instance_spec_with_noise_rejected(self):
        executor = BreakpointExecutor(
            RunConfig(
                ensemble_size=8,
                backend=StatevectorBackend(),
                noise=bit_flip(0.1),
            ),
        )
        with pytest.raises(ValueError, match="registry"):
            executor._new_backend(2)

    def test_batch_matches_ensemble_in_sample_mode(self):
        executor = BreakpointExecutor(
            RunConfig(ensemble_size=12, seed=0, noise=depolarizing(0.1)),
        )
        engine = executor._new_backend(2)
        assert engine.batch_size == 12

    def test_seeded_runs_reproducible_and_trials_vary(self):
        plan = build_execution_plan(_bell_program())

        def samples(seed):
            executor = BreakpointExecutor(
                RunConfig(ensemble_size=24, seed=seed, noise=depolarizing(0.3)),
            )
            return executor.run_plan(plan)[0].joint.samples

        assert samples(9) == samples(9)
        assert samples(9) != samples(10)
        executor = BreakpointExecutor(
            RunConfig(ensemble_size=24, seed=9, noise=depolarizing(0.3)),
        )
        first = executor.run_plan(plan)[0].joint.samples
        second = executor.run_plan(plan)[0].joint.samples
        assert first != second  # fresh spawn per walk, same parent sequence

    def test_spawned_streams_are_per_member_independent(self):
        # Same seed, different batch sizes: the spawn-based streams keep the
        # leading members' trajectory records identical (streams are spawned
        # afresh per backend — generators are stateful).
        noise = NoiseModel.from_channels(depolarizing(0.5))
        small = TrajectoryNoiseBackend(
            2, noise=noise, batch_size=4,
            rng_streams=spawn_trajectory_streams(123, 8)[:4],
        )
        large = TrajectoryNoiseBackend(
            2, noise=noise, batch_size=8,
            rng_streams=spawn_trajectory_streams(123, 8),
        )
        for backend in (small, large):
            backend.apply_matrix(gates.H, [0])
            backend.apply_controlled(gates.X, [0], [1])
        np.testing.assert_allclose(
            small.member_probabilities(),
            large.member_probabilities()[:4],
            atol=1e-12,
        )

    def test_rerun_mode_runs_one_trajectory_per_member(self):
        executor = BreakpointExecutor(
            RunConfig(ensemble_size=6, seed=0, mode="rerun", noise=depolarizing(0.2)),
        )
        plan = build_execution_plan(_bell_program())
        results = executor.run_plan(plan)
        assert len(results[0].joint.samples) == 6

    def test_noise_model_readout_adopted(self):
        from repro.sim import ReadoutErrorModel

        model = NoiseModel(
            gate_channels=(bit_flip(0.1),),
            readout=ReadoutErrorModel(p01=0.2, p10=0.2),
        )
        executor = BreakpointExecutor(RunConfig(ensemble_size=8, noise=model))
        assert executor.readout_error.p01 == 0.2

    def test_explicit_ideal_readout_override_wins(self):
        # Regression: the trajectory backend must not fall back to the noise
        # model's bundled readout channel when the executor was handed an
        # explicit ideal override.
        from repro.sim import ReadoutErrorModel

        model = NoiseModel(
            gate_channels=(bit_flip(1e-12),),
            readout=ReadoutErrorModel(p01=1.0, p10=1.0),
        )

        def program():
            p = Program("flip")
            q = p.qreg("q", 1)
            p.x(q[0])
            p.assert_classical([q[0]], 1, label="one")
            return p

        executor = BreakpointExecutor(
            RunConfig(
                ensemble_size=64,
                seed=SEED,
                noise=model,
                readout_error=ReadoutErrorModel(),
            ),
        )
        samples = executor.run_plan(build_execution_plan(program()))[0].joint.samples
        assert samples == [1] * 64  # no readout corruption at all

    def test_hybrid_readout_not_doubly_corrupted(self):
        # Regression: the hybrid's dense trajectory stage must not apply the
        # noise model's readout natively on top of the executor's classical
        # corruption.  With p10 = 1.0 a single channel application maps the
        # |1> qubit to 0 deterministically; double application would map it
        # back to 1 (p01 = 0 on the corrupted 0).
        from repro.sim import ReadoutErrorModel

        model = NoiseModel(
            gate_channels=(bit_flip(1e-12),),
            readout=ReadoutErrorModel(p01=0.0, p10=1.0),
        )

        def program():
            p = Program("mixed")
            q = p.qreg("q", 1)
            p.x(q[0])
            p.rz(q[0], 0.3)  # non-Clifford: forces the dense stage
            p.assert_classical([q[0]], 1, label="one")
            return p

        executor = BreakpointExecutor(
            RunConfig(ensemble_size=32, seed=SEED, backend="auto", noise=model),
        )
        samples = executor.run_plan(build_execution_plan(program()))[0].joint.samples
        assert samples == [0] * 32  # exactly one corruption pass

    def test_stream_pool_buffered_draws_match_scalar_calls(self):
        from repro.sim.trajectory_backend import StreamPool

        pool = StreamPool(spawn_trajectory_streams(5, 3))
        reference = spawn_trajectory_streams(5, 3)
        drawn = np.concatenate([pool.draw() for _ in range(300)], axis=1)
        for member, stream in enumerate(reference):
            np.testing.assert_array_equal(drawn[member], stream.random(300))

    def test_stream_pool_masked_draws_consume_per_member(self):
        from repro.sim.trajectory_backend import StreamPool

        pool = StreamPool(spawn_trajectory_streams(5, 2))
        reference = spawn_trajectory_streams(5, 2)
        first = pool.draw(np.array([1]))  # member 1 draws alone
        both = pool.draw()
        assert first[0] == reference[1].random()
        assert both[0] == reference[0].random()
        assert both[1] == reference[1].random()


# ---------------------------------------------------------------------------
# RNG-stream contract of the per-gate draw
# ---------------------------------------------------------------------------


def _per_event_reference(samplers, touched, streams, batch_size, members, weights):
    """The one-draw-per-event sampling loop, with scalar per-member draws.

    A test-local copy of the contract the per-gate block draw must keep:
    events in (touched qubit, 1-qubit channel) order, then the 2-qubit
    channels on the first two touched qubits; one ``random()`` per active
    member per event; every biased event multiplies the active members'
    weights by the sampled component's ratio.
    """
    active = np.arange(batch_size) if members is None else np.flatnonzero(members)
    seen = list(dict.fromkeys(touched))
    events = [(s, (q,)) for q in seen for s in samplers if s.num_qubits == 1]
    if len(seen) >= 2:
        events += [(s, tuple(seen[:2])) for s in samplers if s.num_qubits == 2]
    delivered = []
    for sampler, qubits in events:
        if not active.size:
            break
        uniforms = np.array([streams[m].random() for m in active])
        positions = sampler.sample_positions(uniforms)
        if weights is not None and sampler.ratios is not None:
            weights[active] *= sampler.ratios[positions]
        for slot, qubit in enumerate(qubits):
            paulis = np.zeros(batch_size, dtype=np.int64)
            paulis[active] = sampler.codes[positions, slot]
            delivered.append((qubit, paulis))
    return delivered


def _pauli_record(events, batch_size):
    """Per member: the (qubit, Pauli) of every non-identity hit, in order."""
    record = [[] for _ in range(batch_size)]
    for qubit, paulis in events:
        for member in np.flatnonzero(paulis):
            record[member].append((qubit, int(paulis[member])))
    return record


#: A gate sequence: touched qubits and an optional prep-correction mask key.
_GATES = [((0,), None), ((1, 2), None), ((0, 1, 2), None), ((3,), "mask"),
          ((2, 3), None), ((1,), "mask"), ((0, 3, 1), None)] * 12


class TestPerGateDraw:
    def test_block_draws_match_scalar_calls_across_block_boundaries(self):
        from repro.sim.trajectory_backend import StreamPool

        pool = StreamPool(spawn_trajectory_streams(5, 3))
        reference = spawn_trajectory_streams(5, 3)
        counts = [1, 3, 7, 250, 5, 1, 300, 2, 256, 4]
        drawn = np.concatenate([pool.draw(count=k) for k in counts], axis=1)
        for member, stream in enumerate(reference):
            expected = [stream.random() for _ in range(sum(counts))]
            np.testing.assert_array_equal(drawn[member], expected)

    def test_masked_draws_interleaved_keep_each_stream(self):
        from repro.sim.trajectory_backend import StreamPool

        pool = StreamPool(spawn_trajectory_streams(9, 4))
        reference = spawn_trajectory_streams(9, 4)
        split = [
            (None, 3), (np.array([1]), 2), (None, 200), (np.array([0, 3]), 5),
            (None, 60), (np.array([2]), 1), (None, 7),
        ]
        # Members 1 and 2 catch up with 0 and 3 (275 draws each).
        rejoin = [(np.array([1, 2]), 3), (np.array([2]), 1)]
        lockstep = [(None, 300), (None, 3)]

        def check(schedule):
            for members, count in schedule:
                values = pool.draw(members, count)
                rows = range(4) if members is None else members
                for row, member in zip(values, rows):
                    expected = [reference[member].random() for _ in range(count)]
                    np.testing.assert_array_equal(row, expected)

        check(split)
        assert not pool._lockstep
        check(rejoin)
        assert pool._lockstep  # the shared-position path serves the rest
        check(lockstep)

    def test_pauli_record_is_independent_of_batch_size(self):
        from repro.sim.trajectory_backend import StreamPool, iter_noise_events

        samplers = (
            PauliChannelSampler(depolarizing(0.05).pauli_decomposition()),
            PauliChannelSampler(
                two_qubit_depolarizing(0.05).pauli_decomposition()
            ),
        )
        batch = 16
        masks = np.random.default_rng(SEED).random((len(_GATES), batch)) < 0.3

        def walk(pool, size, member_slice):
            events = []
            for index, (touched, mask) in enumerate(_GATES):
                members = None if mask is None else masks[index, member_slice]
                events += list(
                    iter_noise_events(samplers, touched, pool, size, members)
                )
            return _pauli_record(events, size)

        together = walk(StreamPool(spawn_trajectory_streams(SEED, batch)), batch,
                        slice(None))
        assert sum(map(len, together)) > 0
        for member in range(batch):
            alone_stream = spawn_trajectory_streams(SEED, batch)[member]
            (alone,) = walk(StreamPool([alone_stream]), 1,
                            slice(member, member + 1))
            assert alone == together[member]

    def test_importance_weights_match_the_per_event_loop(self):
        from repro.sim.trajectory_backend import StreamPool, iter_noise_events

        samplers = tuple(
            PauliChannelSampler(channel.pauli_decomposition(), importance_boost=0.1)
            for channel in (depolarizing(1e-3), two_qubit_depolarizing(1e-3))
        )
        assert all(sampler.is_biased for sampler in samplers)
        batch = 8
        masks = np.random.default_rng(SEED).random((len(_GATES), batch)) < 0.3
        pool = StreamPool(spawn_trajectory_streams(SEED, batch))
        streams = spawn_trajectory_streams(SEED, batch)
        weights = np.ones(batch)
        expected_weights = np.ones(batch)
        for index, (touched, mask) in enumerate(_GATES):
            members = None if mask is None else masks[index]
            got = list(
                iter_noise_events(samplers, touched, pool, batch, members, weights)
            )
            expected = _per_event_reference(
                samplers, touched, streams, batch, members, expected_weights
            )
            assert _pauli_record(got, batch) == _pauli_record(expected, batch)
            np.testing.assert_array_equal(weights, expected_weights)
        assert not np.all(weights == 1.0)


# ---------------------------------------------------------------------------
# Copy-on-diverge member rows
# ---------------------------------------------------------------------------

_T = gates.GATE_BUILDERS["rz"](np.pi / 4)

#: Qubits 0-2 carry superpositions; qubits 3-4 stay in basis states (only X,
#: CX among themselves and CZ from qubit 0 touch them), so their preps never
#: collapse and are masked corrections of the members that noise flipped.
_ROW_WALK = [
    ("m", gates.H, (0,)), ("m", gates.H, (1,)), ("c", gates.X, (0,), (2,)),
    ("m", _T, (2,)), ("m", gates.X, (3,)), ("c", gates.X, (3,), (4,)),
    ("c", gates.Z, (0,), (3,)), ("m", gates.H, (2,)), ("p", 3, 0),
    ("c", gates.X, (1,), (0,)), ("m", _T, (0,)), ("p", 4, 1),
    ("c", gates.X, (4,), (3,)), ("m", gates.H, (1,)), ("p", 3, 1),
] * 6

_ROW_NOISES = {
    "depolarizing": NoiseModel.from_channels(
        [depolarizing(0.02), two_qubit_depolarizing(0.02)]
    ),
    "importance_boost": NoiseModel.from_channels(
        [depolarizing(1e-3), two_qubit_depolarizing(1e-3)], importance_boost=0.02
    ),
}


def _row_walk(backend, steps=_ROW_WALK, rng=None, after_step=None):
    for step in steps:
        kind = step[0]
        if kind == "m":
            backend.apply_matrix(step[1], step[2])
        elif kind == "c":
            backend.apply_controlled(step[1], step[2], step[3])
        else:
            backend.prep_qubit(step[1], step[2], rng=rng)
        if after_step is not None:
            after_step(backend)
    return backend


def _member_bytes(backend):
    return [
        backend.member_statevector(m).data.tobytes()
        for m in range(backend.batch_size)
    ]


class TestMemberRows:
    BATCH = 16

    def _batch_and_alone(self, noise, walk):
        batch = walk(
            TrajectoryNoiseBackend(
                noise=noise, batch_size=self.BATCH,
                rng_streams=spawn_trajectory_streams(SEED, self.BATCH),
            )
        )
        alone = [
            walk(
                TrajectoryNoiseBackend(
                    noise=noise, batch_size=1,
                    rng_streams=[spawn_trajectory_streams(SEED, self.BATCH)[m]],
                )
            )
            for m in range(self.BATCH)
        ]
        return batch, alone

    @pytest.mark.parametrize("noise", list(_ROW_NOISES), ids=list(_ROW_NOISES))
    def test_each_member_equals_its_own_batch_one_walk(self, noise):
        batch, alone = self._batch_and_alone(
            _ROW_NOISES[noise], lambda b: _row_walk(b.initialize(5))
        )
        assert batch._rows > 1
        for member, single in enumerate(alone):
            assert _member_bytes(batch)[member] == _member_bytes(single)[0]
        if noise == "importance_boost":
            np.testing.assert_array_equal(
                batch.member_weights(),
                [single.member_weights()[0] for single in alone],
            )

    def test_multiplier_members_equal_their_batch_one_walks(self):
        program = BUG_SCENARIOS["control_routing"].build_correct()
        plan = build_execution_plan(program)

        def walk(backend):
            backend.initialize(program.num_qubits)
            for segment in plan.segments:
                run_instructions(program, segment.instructions, backend, rng=SEED)
            return backend

        batch, alone = self._batch_and_alone(_ROW_NOISES["depolarizing"], walk)
        states = _member_bytes(batch)
        assert all(
            states[member] == _member_bytes(single)[0]
            for member, single in enumerate(alone)
        )

    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    def test_collapses_from_shared_rows_equal_unshared_rows(self, noisy):
        noise = _ROW_NOISES["depolarizing"] if noisy else None
        steps = [
            ("m", gates.H, (0,)), ("c", gates.X, (0,), (1,)), ("m", gates.H, (2,)),
            ("p", 0, 1), ("m", _T, (1,)), ("m", gates.H, (1,)), ("p", 1, 0),
            ("p", 2, 0), ("m", gates.H, (0,)), ("c", gates.X, (0,), (2,)),
            ("p", 2, 1),
        ] * 3

        def backend():
            return TrajectoryNoiseBackend(
                noise=noise, batch_size=self.BATCH,
                rng_streams=spawn_trajectory_streams(SEED, self.BATCH),
            )

        shared = _row_walk(backend().initialize(3), steps, rng=np.random.default_rng(4))
        ground = np.zeros((self.BATCH, 8), dtype=complex)
        ground[:, 0] = 1.0
        unshared = _row_walk(
            backend().initialize_from_members(ground), steps,
            rng=np.random.default_rng(4),
        )
        assert unshared._rows == self.BATCH
        assert shared._rows > 1
        assert _member_bytes(shared) == _member_bytes(unshared)

    @pytest.mark.parametrize("noise", list(_ROW_NOISES), ids=list(_ROW_NOISES))
    def test_rows_never_exceed_distinct_trajectories(self, noise, monkeypatch):
        # A trajectory is the sequence of noise events that hit a member.
        # Equal states can come from different trajectories (an X on |+>,
        # or the same Pauli from two channels of one gate), so rows are
        # bounded by trajectories, and every distinct state needs a row.
        import repro.sim.trajectory_backend as trajectory

        records = [[] for _ in range(self.BATCH)]
        sampled = trajectory.iter_noise_events
        events = iter(range(10**9))

        def recording(*args, **kwargs):
            for qubit, paulis in sampled(*args, **kwargs):
                event = next(events)
                for member in np.flatnonzero(paulis):
                    records[member].append((event, int(paulis[member])))
                yield qubit, paulis

        def check(backend):
            trajectories = len({tuple(record) for record in records})
            states = len(set(_member_bytes(backend)))
            assert states <= backend._rows <= trajectories

        monkeypatch.setattr(trajectory, "iter_noise_events", recording)
        backend = TrajectoryNoiseBackend(
            5, noise=_ROW_NOISES[noise], batch_size=self.BATCH, seed=SEED
        )
        _row_walk(backend, after_step=check)
        assert backend._rows > 1

    def test_restore_rolls_back_rows_and_weights(self):
        backend = TrajectoryNoiseBackend(
            5, noise=_ROW_NOISES["importance_boost"], batch_size=self.BATCH,
            seed=SEED,
        )
        _row_walk(backend, _ROW_WALK[:15])
        token = backend.snapshot()
        rows, states, weights = (
            backend._rows, _member_bytes(backend), backend.member_weights()
        )
        assert len(token) == 3
        _row_walk(backend, _ROW_WALK[15:45])
        assert backend._rows != rows
        backend.restore(token)
        assert backend._rows == rows
        assert _member_bytes(backend) == states
        np.testing.assert_array_equal(backend.member_weights(), weights)

    def test_restore_rejects_malformed_tokens(self):
        backend = TrajectoryNoiseBackend(2, noise=depolarizing(0.3), batch_size=4, seed=1)
        backend.apply_matrix(gates.H, [0])
        rows, row_of = backend.snapshot()
        for bad in (
            (rows, row_of + rows.shape[0]),  # map points past the rows
            (rows, row_of[:3]),  # one entry short
            (rows, row_of.astype(float)),
            (np.zeros((5, 4)), np.zeros(4, dtype=int)),  # more rows than members
            (rows[:, :2], row_of),  # wrong dimension
            (rows, row_of, np.ones(4)),  # weights this batch does not carry
            rows,
        ):
            with pytest.raises(ValueError):
                backend.restore(bad)

    def test_initialize_from_members_validates_the_map(self):
        backend = TrajectoryNoiseBackend(batch_size=3)
        state = np.array([[1.0, 0.0]], dtype=complex)
        backend.initialize_from_members(state, np.zeros(3, dtype=int))
        assert backend._rows == 1 and backend.num_qubits == 1
        with pytest.raises(ValueError, match="row map"):
            backend.initialize_from_members(state, np.array([0, 1, 0]))
        with pytest.raises(ValueError, match="member stack"):
            backend.initialize_from_members(state)

    def test_hybrid_conversion_gives_one_row_per_distinct_frame(self):
        batch = 32
        hybrid = HybridCliffordBackend(
            4, noise=NoiseModel.from_channels(depolarizing(0.05)),
            batch_size=batch, seed=SEED,
        )
        hybrid.apply_matrix(gates.H, [0])
        for target in (1, 2, 3):
            hybrid.apply_controlled(gates.X, [0], [target])
        tableau = hybrid.active_engine
        frames = set(zip(*tableau.frames.masks()))
        assert 1 < len(frames) < batch
        rows, row_of = tableau.member_statevectors()
        assert len(rows) == len(frames)
        dense = hybrid._densify()
        assert dense._rows == len(frames)
        np.testing.assert_allclose(
            dense.member_probabilities(), np.abs(rows[row_of]) ** 2, atol=1e-12
        )


# ---------------------------------------------------------------------------
# Quiet-gate skips in the stream pool
# ---------------------------------------------------------------------------


class TestQuietSkips:
    def _noise(self, channels, batch=8, importance_boost=None):
        from repro.sim.trajectory_backend import MemberNoise

        model = NoiseModel.from_channels(channels, importance_boost=importance_boost)
        return MemberNoise(
            model, batch, rng_streams=spawn_trajectory_streams(SEED, batch)
        )

    def test_pool_after_skips_equals_a_pool_of_plain_draws(self):
        from repro.sim.trajectory_backend import StreamPool, iter_noise_events

        noise = self._noise([depolarizing(0.002), two_qubit_depolarizing(0.002)])
        plain = StreamPool(spawn_trajectory_streams(SEED, 8))
        masks = np.random.default_rng(SEED).random((len(_GATES), 8)) < 0.3
        taken = []
        skip = noise.pool.skip_quiet
        noise.pool.skip_quiet = lambda *args: taken.append(skip(*args)) or taken[-1]
        for index, (touched, mask) in enumerate(_GATES * 3):
            members = None if mask is None else masks[index % len(_GATES)]
            got = list(noise.events(touched, members))
            expected = list(
                iter_noise_events(noise.samplers, touched, plain, 8, members)
            )
            assert _pauli_record(got, 8) == _pauli_record(expected, 8)
            np.testing.assert_array_equal(noise.pool._positions, plain._positions)
            np.testing.assert_array_equal(noise.pool._buffer, plain._buffer)
            assert noise.pool._lockstep == plain._lockstep
        assert any(taken) and not all(taken)

    def _count_samples(self, monkeypatch):
        """Record every call of the sampler ``MemberNoise.events`` makes."""
        import repro.sim.trajectory_backend as trajectory

        calls = []
        sampled = trajectory.iter_noise_events
        monkeypatch.setattr(
            trajectory, "iter_noise_events",
            lambda *args, **kwargs: calls.append(1) or sampled(*args, **kwargs),
        )
        return calls

    def test_quiet_gates_never_reach_the_sampler(self, monkeypatch):
        calls = self._count_samples(monkeypatch)
        noise = self._noise([depolarizing(1e-9)])
        for _ in range(100):
            assert list(noise.events([0, 1])) == []
        # Only the first gate draws: it finds the block exhausted.
        assert len(calls) == 1

    def test_not_taken_under_live_weights(self, monkeypatch):
        noise = self._noise([depolarizing(1e-9)], importance_boost=0.01)
        assert noise.weights is not None and noise.quiet_bound is None
        calls = self._count_samples(monkeypatch)
        for _ in range(5):
            list(noise.events([0]))
        assert len(calls) == 5
        assert not np.all(noise.weights == 1.0)  # every event took its ratio

    def test_not_taken_for_masked_members(self, monkeypatch):
        noise = self._noise([depolarizing(1e-9)])
        list(noise.events([0]))
        calls = self._count_samples(monkeypatch)
        list(noise.events([0], np.ones(8, dtype=bool)))
        assert len(calls) == 1

    def test_not_taken_out_of_lockstep(self, monkeypatch):
        noise = self._noise([depolarizing(1e-9)])
        noise.pool.draw(np.array([1, 2]))
        assert not noise.pool._lockstep
        calls = self._count_samples(monkeypatch)
        list(noise.events([0]))
        assert len(calls) == 1
        assert not noise.pool.skip_quiet(1, noise.quiet_bound)

    def test_not_taken_across_a_refill(self, monkeypatch):
        noise = self._noise([depolarizing(1e-9)])
        noise.pool.draw(count=noise.pool._BLOCK - 1)  # one column left
        calls = self._count_samples(monkeypatch)
        list(noise.events([0, 1]))  # needs two
        assert len(calls) == 1
        assert noise.pool._positions[0] == 1  # read on into the next block

    def test_not_taken_without_an_identity_component(self, monkeypatch):
        noise = self._noise([bit_flip(1.0)])
        assert noise.quiet_bound is None
        calls = self._count_samples(monkeypatch)
        for _ in range(3):
            assert len(list(noise.events([0]))) == 1
        assert len(calls) == 3

    def test_loud_column_inside_the_block_stops_the_skip(self):
        from repro.sim.trajectory_backend import StreamPool

        pool = StreamPool(spawn_trajectory_streams(SEED, 4))
        pool.draw()
        loud = 10
        pool._buffer[2, loud] = 0.999
        pool._next_loud = None  # the buffer was edited by hand
        assert pool.skip_quiet(loud - 1, 0.99)
        assert not pool.skip_quiet(1, 0.99)
        assert pool._positions[0] == loud


# ---------------------------------------------------------------------------
# Golden seeded reports
# ---------------------------------------------------------------------------

_GOLDEN_NOISES = {
    "depolarizing_1e-4": NoiseModel.from_channels([depolarizing(1e-4)]),
    "depolarizing_1e-2": NoiseModel.from_channels([depolarizing(1e-2)]),
    "boosted": NoiseModel.from_channels(
        [depolarizing(1e-3), two_qubit_depolarizing(1e-3)], importance_boost=0.05
    ),
}

#: sha256 of the seeded ``report.to_json()`` per (scenario, buggy, backend,
#: noise, seed), pinned before member rows and quiet skips existed: a change
#: to how trajectories are stored or drawn must not move any stream.
_GOLDEN_REPORTS = {
    ("control_routing", False, "trajectory", "depolarizing_1e-4", 0): "1e7ca14b070d256aac6d39675bdfd50974812ab0fe0e2a3ee508461d7bf06ce1",
    ("control_routing", False, "trajectory", "depolarizing_1e-4", 1): "6ceb3d9e36bbd4227cc65f2d25bb7649fd4943c52060dad9a141bcb59e230836",
    ("control_routing", False, "trajectory", "depolarizing_1e-2", 0): "65d0e5aff93df346046cf114d299d927a9f7edef3f774307afb4ecae195815fb",
    ("control_routing", False, "trajectory", "depolarizing_1e-2", 1): "1da6ce8b9d252509b03d78c3a0b98f5a6093d391418bbf9b65dca8810fabf2d5",
    ("control_routing", False, "trajectory", "boosted", 0): "c882de40553ef836b3f3b86faf4b17e87a08d2d2f53c8a8c29bf32e5f636f3ec",
    ("control_routing", False, "trajectory", "boosted", 1): "3ed607116ba69897478eb7bd0df432c3e6876604887c3e1b4849edd3dd846ab2",
    ("control_routing", False, "auto", "depolarizing_1e-4", 0): "1e7ca14b070d256aac6d39675bdfd50974812ab0fe0e2a3ee508461d7bf06ce1",
    ("control_routing", False, "auto", "depolarizing_1e-4", 1): "6ceb3d9e36bbd4227cc65f2d25bb7649fd4943c52060dad9a141bcb59e230836",
    ("control_routing", False, "auto", "depolarizing_1e-2", 0): "65d0e5aff93df346046cf114d299d927a9f7edef3f774307afb4ecae195815fb",
    ("control_routing", False, "auto", "depolarizing_1e-2", 1): "1da6ce8b9d252509b03d78c3a0b98f5a6093d391418bbf9b65dca8810fabf2d5",
    ("control_routing", False, "auto", "boosted", 0): "c882de40553ef836b3f3b86faf4b17e87a08d2d2f53c8a8c29bf32e5f636f3ec",
    ("control_routing", False, "auto", "boosted", 1): "3ed607116ba69897478eb7bd0df432c3e6876604887c3e1b4849edd3dd846ab2",
    ("control_routing", True, "trajectory", "depolarizing_1e-4", 0): "eefc7a6141f155fdb3c6595aed7bc4e9d705bb4a53954da512836cb2e1c65fdf",
    ("control_routing", True, "trajectory", "depolarizing_1e-4", 1): "0e5562c155409f5a53501c99c59d3771b6888a4a8bcf6e7dbca629966f8fd428",
    ("control_routing", True, "trajectory", "depolarizing_1e-2", 0): "6aab73f50b555f3d9cbfe74ae6e63ce54987b45807cfbc69a1ef83c31f76345d",
    ("control_routing", True, "trajectory", "depolarizing_1e-2", 1): "73f9627f0779460597cad75160c1d28d0e1af8fcd6954c74d918dd2b8eb09023",
    ("control_routing", True, "trajectory", "boosted", 0): "da9b9bf280b5a62081ad699e2d08558d388d252d8eb1b9b45c68a1a5d9c2b487",
    ("control_routing", True, "trajectory", "boosted", 1): "c0e0a078da33dfebd63e804ea2c7757a1a629e53f73f3009f0e978bd3fa5be14",
    ("control_routing", True, "auto", "depolarizing_1e-4", 0): "eefc7a6141f155fdb3c6595aed7bc4e9d705bb4a53954da512836cb2e1c65fdf",
    ("control_routing", True, "auto", "depolarizing_1e-4", 1): "0e5562c155409f5a53501c99c59d3771b6888a4a8bcf6e7dbca629966f8fd428",
    ("control_routing", True, "auto", "depolarizing_1e-2", 0): "6aab73f50b555f3d9cbfe74ae6e63ce54987b45807cfbc69a1ef83c31f76345d",
    ("control_routing", True, "auto", "depolarizing_1e-2", 1): "73f9627f0779460597cad75160c1d28d0e1af8fcd6954c74d918dd2b8eb09023",
    ("control_routing", True, "auto", "boosted", 0): "da9b9bf280b5a62081ad699e2d08558d388d252d8eb1b9b45c68a1a5d9c2b487",
    ("control_routing", True, "auto", "boosted", 1): "c0e0a078da33dfebd63e804ea2c7757a1a629e53f73f3009f0e978bd3fa5be14",
    ("missing_superposition", False, "trajectory", "depolarizing_1e-4", 0): "c7c8e63a84223c61dc98d74b266956ceca54c7e9c7cafc7f77c06ecf19e8b4dc",
    ("missing_superposition", False, "trajectory", "depolarizing_1e-4", 1): "c8b0ae996189d3443e3a77ebcb81058f05dccbfeed61004d221e28ca1e024043",
    ("missing_superposition", False, "trajectory", "depolarizing_1e-2", 0): "516eb74a81c077bbdda8c314613e5196774a755e17bb16196f7cbf6a119ef6a8",
    ("missing_superposition", False, "trajectory", "depolarizing_1e-2", 1): "78683aa0752661c58e16e1beabc0ebf6ab00b43a405e712533c2b62975347d77",
    ("missing_superposition", False, "trajectory", "boosted", 0): "773ced1e81ac2cb8b456eb6f5d0d85ccdce61fbfb00062978d2dde3e0d970f1f",
    ("missing_superposition", False, "trajectory", "boosted", 1): "d7e3ae2280aa2e769f607cedbf706b6c09801f4a63ecfc771c81de2afd217840",
    ("missing_superposition", False, "auto", "depolarizing_1e-4", 0): "c7c8e63a84223c61dc98d74b266956ceca54c7e9c7cafc7f77c06ecf19e8b4dc",
    ("missing_superposition", False, "auto", "depolarizing_1e-4", 1): "c8b0ae996189d3443e3a77ebcb81058f05dccbfeed61004d221e28ca1e024043",
    ("missing_superposition", False, "auto", "depolarizing_1e-2", 0): "40588325515f7149fbe3b6a298b68583f05667bfa5b5fde30066ddbd9f608c75",
    ("missing_superposition", False, "auto", "depolarizing_1e-2", 1): "c9947b93d5100ac364975b05f256b6abfe8692a0110f475baa2ff210b608bf33",
    ("missing_superposition", False, "auto", "boosted", 0): "dc2a5431dba83732615a4af4aab46b1741821078f59a613092b7faf1738bbaf2",
    ("missing_superposition", False, "auto", "boosted", 1): "c99fc907118d305c1f38f156d47aef00edcf2538154a13791826d2072417cff1",
    ("missing_superposition", True, "trajectory", "depolarizing_1e-4", 0): "88a4f4ceebd45ec6d4784665aedea5cd31b4cd40f143629c110815c9928c1b3d",
    ("missing_superposition", True, "trajectory", "depolarizing_1e-4", 1): "88a4f4ceebd45ec6d4784665aedea5cd31b4cd40f143629c110815c9928c1b3d",
    ("missing_superposition", True, "trajectory", "depolarizing_1e-2", 0): "88a4f4ceebd45ec6d4784665aedea5cd31b4cd40f143629c110815c9928c1b3d",
    ("missing_superposition", True, "trajectory", "depolarizing_1e-2", 1): "88a4f4ceebd45ec6d4784665aedea5cd31b4cd40f143629c110815c9928c1b3d",
    ("missing_superposition", True, "trajectory", "boosted", 0): "01ba52eaf0d36bb23d63590e64e3171467bfa7bb76f1463c465377c3f640e89b",
    ("missing_superposition", True, "trajectory", "boosted", 1): "88a4f4ceebd45ec6d4784665aedea5cd31b4cd40f143629c110815c9928c1b3d",
    ("missing_superposition", True, "auto", "depolarizing_1e-4", 0): "88a4f4ceebd45ec6d4784665aedea5cd31b4cd40f143629c110815c9928c1b3d",
    ("missing_superposition", True, "auto", "depolarizing_1e-4", 1): "88a4f4ceebd45ec6d4784665aedea5cd31b4cd40f143629c110815c9928c1b3d",
    ("missing_superposition", True, "auto", "depolarizing_1e-2", 0): "88a4f4ceebd45ec6d4784665aedea5cd31b4cd40f143629c110815c9928c1b3d",
    ("missing_superposition", True, "auto", "depolarizing_1e-2", 1): "88a4f4ceebd45ec6d4784665aedea5cd31b4cd40f143629c110815c9928c1b3d",
    ("missing_superposition", True, "auto", "boosted", 0): "01ba52eaf0d36bb23d63590e64e3171467bfa7bb76f1463c465377c3f640e89b",
    ("missing_superposition", True, "auto", "boosted", 1): "88a4f4ceebd45ec6d4784665aedea5cd31b4cd40f143629c110815c9928c1b3d",
}


_GOLDEN_SETTINGS = {
    "readout_0.05": {"readout_error": 0.05},
    "rerun": {"mode": "rerun"},
    "rerun_damped": {
        "mode": "rerun",
        "noise": NoiseModel.from_channels([amplitude_damping(0.02)]),
    },
}

#: sha256 of the seeded ``report.to_json()`` per (scenario, buggy, backend,
#: setting, seed) on the single-state backends: readout draws under a
#: symmetric 5% flip, ``"rerun"`` collapses (on the pure state, the density
#: matrix and the tableau) and their outcome draws.  Clifford scenarios come
#: from ``CLIFFORD_SCENARIOS`` at their moderate width.
_GOLDEN_SINGLE_STATE_REPORTS = {
    ('wrong_initial_value', False, 'statevector', 'readout_0.05', 0): "de11328bd4e3dba83e458e3d23c6da8295d7f85e6473e444972d07ed577901e2",
    ('wrong_initial_value', False, 'statevector', 'rerun', 0): "f64b50572e1468b8e522eea7905b5081ac30a7ef351e9bfce172e724b6998d97",
    ('wrong_initial_value', True, 'statevector', 'readout_0.05', 0): "15f49fdfd4e1c82de6417d574550409e97c5d39fef16144b2fc512869f7c8596",
    ('wrong_initial_value', True, 'statevector', 'rerun', 0): "2c5df8bf1dba7f85512b9b504e8ec35ba52d38e7fc3da303f5433c763ddc5dc0",
    ('flipped_rotation_angles', False, 'statevector', 'readout_0.05', 0): "a9922d3168ff7739662069284b7cae52338b68321eddfc86535866c5bd1cbf76",
    ('flipped_rotation_angles', False, 'statevector', 'rerun', 0): "7495f1f651f4ea93e733fb941740ca68a66c6e113dc419e3ae5f18b60aecd904",
    ('flipped_rotation_angles', True, 'statevector', 'readout_0.05', 0): "743cbf20b0eb0582f102a50f72438ae50366df56cf5fc52fe8078b3b528bc6fc",
    ('flipped_rotation_angles', True, 'statevector', 'rerun', 0): "3178f6b992dc4e76f89b06b9b937571ca44506b6b5b4d1e1437ef846080b556b",
    ('wrong_initial_value', False, 'density', 'readout_0.05', 0): "4f7221e48b50c569eec6847f6c52b71ea3fc7fcd70ca0cadd23a988a27ed274c",
    ('wrong_initial_value', False, 'density', 'rerun', 0): "f64b50572e1468b8e522eea7905b5081ac30a7ef351e9bfce172e724b6998d97",
    ('wrong_initial_value', False, 'density', 'rerun_damped', 0): "2e2c7058a3c7299092b6e3f972ff63799e9c17625f688726209a8d00cfd525ac",
    ('wrong_initial_value', True, 'density', 'readout_0.05', 0): "2952d588dd598d7e66f4ca997ed1e973f1f520cebd22b65825891dd91037e83c",
    ('wrong_initial_value', True, 'density', 'rerun', 0): "2c5df8bf1dba7f85512b9b504e8ec35ba52d38e7fc3da303f5433c763ddc5dc0",
    ('wrong_initial_value', True, 'density', 'rerun_damped', 0): "42cf7b02c18bbe6068844dbf3fb418033b92a76d9ae6e347100f1a0a8fe76a68",
    ('flipped_rotation_angles', False, 'density', 'readout_0.05', 0): "58178e1e7b364ac2dc426870c290c71bb26eda82e9e09b15536a023c977249a8",
    ('flipped_rotation_angles', False, 'density', 'rerun', 0): "7495f1f651f4ea93e733fb941740ca68a66c6e113dc419e3ae5f18b60aecd904",
    ('flipped_rotation_angles', False, 'density', 'rerun_damped', 0): "ae848779a49c7b67326cde15c51873fa22a7c0df96e79c032569a2e64bcbd3d7",
    ('flipped_rotation_angles', True, 'density', 'readout_0.05', 0): "9458e9b370453f6757590c2dd08c1c23f8fbca30e8049337e3c27de7189ff707",
    ('flipped_rotation_angles', True, 'density', 'rerun', 0): "3178f6b992dc4e76f89b06b9b937571ca44506b6b5b4d1e1437ef846080b556b",
    ('flipped_rotation_angles', True, 'density', 'rerun_damped', 0): "bfa08497873234efadd1b3939bd53eed742b8576e8aa37e239d0c52524a5fce5",
    ('ghz_broken_link', False, 'stabilizer', 'readout_0.05', 0): "c7330de52ef11cac861f423a1c8c1f16c7083e73f59bf6593194af2d467d1fc2",
    ('ghz_broken_link', False, 'stabilizer', 'rerun', 0): "5114462c921c58d308ae7f3f0944d1001e585bd8d749267e6dd1540cdf3cb4d8",
    ('ghz_broken_link', True, 'stabilizer', 'readout_0.05', 0): "f26854ed4e1c61eec90bb3669f9ac7cd36cccf35d3463675f0450101c1c9600d",
    ('ghz_broken_link', True, 'stabilizer', 'rerun', 0): "c58faa1c4d0835994e80650fbce7b24583db8b93e978528e091129bf48394323",
    ('teleport_missing_correction', False, 'stabilizer', 'readout_0.05', 0): "db6ecee34e6191d7436ef0531362ebef8620226c11453590c5c7df21bc5b8bbe",
    ('teleport_missing_correction', False, 'stabilizer', 'rerun', 0): "0701f3cd01b349a84956b8202c3baf5e8453c99cb3d226c96c3e80e5c784601f",
    ('teleport_missing_correction', True, 'stabilizer', 'readout_0.05', 0): "f15d6cbb6919ffb85a2822c36abae68de3915dafd21d85bbc9c2e179767fd861",
    ('teleport_missing_correction', True, 'stabilizer', 'rerun', 0): "0b4d1c7db25eabd8c4c031f137aed58381ff970e2d7ce8f92c078a61038a6463",
}


def _golden_digest(name, buggy, **config):
    import hashlib

    from repro.workloads.clifford import CLIFFORD_SCENARIOS

    scenario = BUG_SCENARIOS.get(name) or CLIFFORD_SCENARIOS[name]
    program = scenario.build_buggy() if buggy else scenario.build_correct()
    text = check_program(program, RunConfig(**config)).to_json()
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenSeededReports:
    @pytest.mark.parametrize("cell", list(_GOLDEN_REPORTS), ids=str)
    def test_report_digest_is_pinned(self, cell):
        name, buggy, backend, noise, seed = cell
        digest = _golden_digest(
            name, buggy, seed=seed, backend=backend, noise=_GOLDEN_NOISES[noise]
        )
        assert digest == _GOLDEN_REPORTS[cell]

    @pytest.mark.parametrize("cell", list(_GOLDEN_SINGLE_STATE_REPORTS), ids=str)
    def test_single_state_report_digest_is_pinned(self, cell):
        name, buggy, backend, setting, seed = cell
        digest = _golden_digest(
            name, buggy, seed=seed, backend=backend, **_GOLDEN_SETTINGS[setting]
        )
        assert digest == _GOLDEN_SINGLE_STATE_REPORTS[cell]


# ---------------------------------------------------------------------------
# Seeded statistical equivalence: trajectory vs density-exact
# ---------------------------------------------------------------------------


class TestStatisticalEquivalence:
    RATE = 0.05
    ENSEMBLE = 512

    def _density_distributions(self, program, noise):
        plan = build_execution_plan(program)
        engine = DensityMatrixBackend(noise=noise).initialize(program.num_qubits)
        rows = []
        for segment in plan.segments:
            run_instructions(program, segment.instructions, engine, rng=SEED)
            indices = [program.qubit_index(q) for q in segment.assertion.qubits()]
            rows.append(engine.probabilities(indices))
        return rows

    @pytest.mark.parametrize("name", SMALL_SCENARIOS)
    @pytest.mark.parametrize("variant", ["correct", "buggy"])
    def test_trajectory_marginals_match_density(self, name, variant):
        scenario = BUG_SCENARIOS[name]
        build = (
            scenario.build_correct if variant == "correct" else scenario.build_buggy
        )
        program = build()
        noise = NoiseModel.from_channels(depolarizing(self.RATE))
        exact = self._density_distributions(program, noise)
        executor = BreakpointExecutor(
            RunConfig(
                ensemble_size=self.ENSEMBLE,
                seed=SEED,
                backend="trajectory",
                noise=noise,
            ),
        )
        measurements = executor.run_plan(build_execution_plan(program))
        assert len(measurements) == len(exact)
        for item, distribution in zip(measurements, exact):
            result = chi_square_gof(item.joint.samples, distribution)
            assert result.p_value >= 1e-3, (
                f"{name}/{variant}/{item.breakpoint.name}: trajectory "
                f"ensemble diverged (p={result.p_value:.2e})"
            )

    def test_noiseless_trajectory_verdicts_match_statevector(self):
        for name in SMALL_SCENARIOS:
            scenario = BUG_SCENARIOS[name]
            for build in (scenario.build_correct, scenario.build_buggy):
                program = build()
                size = scenario.ensemble_size or 16
                reference = check_program(
                    program,
                    RunConfig(ensemble_size=size, seed=SEED, backend="statevector"),
                )
                trajectory = check_program(
                    program,
                    RunConfig(ensemble_size=size, seed=SEED, backend="trajectory"),
                )
                assert [r.outcome.passed for r in reference.records] == [
                    r.outcome.passed for r in trajectory.records
                ]

    def test_midcircuit_prep_agrees_with_analytic_ensemble(self):
        # A prep on a superposed, noise-touched qubit exercises the
        # per-member reset.  Hardware-faithful semantics per run: measure q0
        # (p1 = 1/2 in every noise branch of the GHZ pair), apply a noisy X
        # only when the outcome was 1, so P(1 after reset) = 1/2 * 0.2 = 0.1.
        def build():
            program = Program("prep_noise")
            q = program.qreg("q", 2)
            program.h(q[0])
            program.cnot(q[0], q[1])
            program.prep_z(q[0], 0)
            program.assert_classical([q[0]], 0, label="reset")
            return program

        noise = NoiseModel.from_channels(bit_flip(0.2))
        executor = BreakpointExecutor(
            RunConfig(ensemble_size=2048, seed=SEED, backend="trajectory", noise=noise),
        )
        measurements = executor.run_plan(build_execution_plan(build()))
        result = chi_square_gof(measurements[0].joint.samples, [0.9, 0.1])
        assert result.p_value >= 1e-3

    def test_stabilizer_frames_match_density_on_clifford_program(self):
        def build():
            program = Program("ghz3")
            q = program.qreg("q", 3)
            program.h(q[0])
            program.cnot(q[0], q[1])
            program.cnot(q[1], q[2])
            program.assert_superposition(
                [q[0], q[1], q[2]], values=(0, 7), label="ghz"
            )
            return program

        noise = NoiseModel.from_channels(depolarizing(0.1))
        program = build()
        exact = self._density_distributions(program, noise)
        executor = BreakpointExecutor(
            RunConfig(ensemble_size=1024, seed=SEED, backend="stabilizer", noise=noise),
        )
        measurements = executor.run_plan(build_execution_plan(program))
        result = chi_square_gof(measurements[0].joint.samples, exact[0])
        assert result.p_value >= 1e-3


# ---------------------------------------------------------------------------
# Convergence criterion
# ---------------------------------------------------------------------------


class TestConvergence:
    def test_category_standard_errors(self):
        errors = category_standard_errors([50, 50], num_outcomes=None)
        assert errors == pytest.approx([0.05, 0.05])
        assert max_category_standard_error([50, 50]) == pytest.approx(0.05)

    def test_standard_error_shrinks_with_samples(self):
        small = max_category_standard_error([8, 8])
        large = max_category_standard_error([512, 512])
        assert large == pytest.approx(small / 8)

    def test_convergence_result(self):
        result = ensemble_convergence([50, 50], cutoff=0.06)
        assert result.converged and result.num_samples == 100
        assert not ensemble_convergence([5, 5], cutoff=0.06).converged
        with pytest.raises(ValueError, match="cutoff"):
            ensemble_convergence([5, 5], cutoff=0.0)
        with pytest.raises(ValueError, match="empty"):
            ensemble_convergence([0, 0])

    def test_checker_runs_until_converged(self):
        checker = StatisticalAssertionChecker(
            _bell_program(),
            RunConfig(ensemble_size=32, seed=SEED, noise=depolarizing(0.05)),
        )
        checker.run_until_converged(se_cutoff=0.04, max_batches=16)
        assert checker.convergence
        for row in checker.convergence:
            assert row["converged"]
            assert row["max_standard_error"] <= 0.04
            assert row["num_samples"] >= 64  # needed more than one batch

    def test_converged_run_on_assertion_free_program(self):
        program = Program("plain")
        q = program.qreg("q", 1)
        program.h(q[0])
        checker = StatisticalAssertionChecker(
            program,
            RunConfig(ensemble_size=4, seed=0),
        )
        report = checker.run_until_converged()
        assert report.records == [] and checker.convergence == []

    def test_cutoff_validated_before_any_walk(self):
        checker = StatisticalAssertionChecker(
            _bell_program(),
            RunConfig(ensemble_size=4, seed=0),
        )
        with pytest.raises(ValueError, match="se_cutoff"):
            checker.run_until_converged(se_cutoff=0.0)
        assert checker.executor.gates_applied == 0  # no walk was burned

    def test_checker_respects_batch_cap(self):
        checker = StatisticalAssertionChecker(
            _bell_program(),
            RunConfig(ensemble_size=4, seed=SEED),
        )
        report = checker.run_until_converged(se_cutoff=1e-4, max_batches=3)
        assert report.records[0].ensemble_size == 12
        assert not checker.convergence[0]["converged"]
        assert checker.convergence[0]["batches"] == 3


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class TestNoisyWorkloads:
    def test_shor_noise_workload_shape(self):
        program = build_shor_noise_workload()
        assert program.num_qubits == 13
        labels = [a.label for a in program.assertions()]
        assert any("iteration" in label for label in labels)
        buggy = build_shor_noise_workload(buggy=True)
        assert buggy.name != program.name

    def test_gate_noise_sweep_rows(self):
        scenario = BUG_SCENARIOS["wrong_initial_value"]
        rows = gate_noise_sweep(
            scenario.build_correct,
            scenario.build_buggy,
            error_rates=(0.0, 0.01),
            trials=2,
            config=RunConfig(ensemble_size=16, seed=SEED),
        )
        assert [row["gate_error"] for row in rows] == [0.0, 0.01]
        assert rows[0]["false_positive_rate"] == 0.0
        assert rows[0]["detection_rate"] == 1.0
        for row in rows:
            assert "depolarizing" in row["channel"]
