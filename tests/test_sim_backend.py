"""Tests for the pluggable simulation-backend layer."""

import numpy as np
import pytest

from repro.lang import Program
from repro.sim import (
    SimulationBackend,
    Statevector,
    StatevectorBackend,
    gates,
    list_backends,
    make_backend,
    register_backend,
    unregister_backend,
)
from repro.sim.kernels import apply_controlled, apply_matrix


class TestRegistry:
    def test_default_is_statevector(self):
        backend = make_backend(None)
        assert isinstance(backend, StatevectorBackend)

    def test_lookup_by_name(self):
        assert isinstance(make_backend("statevector"), StatevectorBackend)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown backend"):
            make_backend("tensor_network")

    def test_instance_passes_through(self):
        backend = StatevectorBackend(2)
        assert make_backend(backend) is backend

    def test_factory_is_called(self):
        assert isinstance(make_backend(StatevectorBackend), StatevectorBackend)

    def test_bad_spec_raises(self):
        with pytest.raises(TypeError):
            make_backend(42)

    def test_register_backend(self):
        class Custom(StatevectorBackend):
            name = "custom_test"

        register_backend("custom_test", Custom)
        try:
            assert "custom_test" in list_backends()
            assert isinstance(make_backend("custom_test"), Custom)
        finally:
            unregister_backend("custom_test")
        assert "custom_test" not in list_backends()


class TestStatevectorBackend:
    def test_requires_initialisation(self):
        backend = StatevectorBackend()
        with pytest.raises(RuntimeError):
            backend.probabilities()

    def test_initialize_to_zero_state(self):
        backend = StatevectorBackend(3)
        assert backend.num_qubits == 3
        assert backend.probabilities()[0] == pytest.approx(1.0)

    def test_initialize_from_state(self):
        initial = Statevector.from_label("10")
        backend = StatevectorBackend().initialize(2, initial_state=initial)
        assert backend.probabilities()[2] == pytest.approx(1.0)
        # The backend copies: mutating it leaves the template untouched.
        backend.apply_gate("x", [0])
        assert initial.probabilities()[2] == pytest.approx(1.0)

    def test_initialize_wrong_size_raises(self):
        with pytest.raises(ValueError):
            StatevectorBackend().initialize(3, initial_state=Statevector(2))

    def test_apply_gate_named_and_parameterised(self):
        backend = StatevectorBackend(1)
        backend.apply_gate("h", [0])
        backend.apply_gate("rz", [0], np.pi)
        state = backend.to_statevector()
        expected = Statevector(1).apply_matrix(gates.H, [0]).apply_matrix(
            gates.rz(np.pi), [0]
        )
        assert state.equiv(expected)

    def test_apply_gate_validates(self):
        backend = StatevectorBackend(1)
        with pytest.raises(KeyError):
            backend.apply_gate("warp", [0])
        with pytest.raises(ValueError):
            backend.apply_gate("h", [0], 0.5)

    def test_gate_counter(self):
        backend = StatevectorBackend(2)
        backend.apply_gate("h", [0])
        backend.apply_controlled(gates.X, [0], [1])
        backend.apply_matrix(gates.SWAP, [0, 1])
        assert backend.gates_applied == 3

    def test_snapshot_restore_roundtrip(self, rng):
        backend = StatevectorBackend(2)
        backend.apply_gate("h", [0])
        backend.apply_controlled(gates.X, [0], [1])
        before = backend.probabilities().copy()
        token = backend.snapshot()
        backend.measure([0, 1], rng=rng)  # collapses the Bell state
        assert np.max(backend.probabilities()) == pytest.approx(1.0)
        backend.restore(token)
        assert np.allclose(backend.probabilities(), before)
        # The token survives multiple restores.
        backend.measure([0, 1], rng=rng)
        backend.restore(token)
        assert np.allclose(backend.probabilities(), before)

    def test_restore_wrong_size_raises(self):
        backend = StatevectorBackend(2)
        with pytest.raises(ValueError):
            backend.restore(np.zeros(2, dtype=complex))

    def test_sample_does_not_collapse(self, rng):
        backend = StatevectorBackend(2)
        backend.apply_gate("h", [0])
        probs = backend.probabilities().copy()
        outcomes = backend.sample([0], shots=64, rng=rng)
        assert set(int(v) for v in outcomes) == {0, 1}
        assert np.allclose(backend.probabilities(), probs)

    def test_to_statevector_copy_semantics(self):
        backend = StatevectorBackend(1)
        copied = backend.to_statevector(copy=True)
        copied.apply_matrix(gates.X, [0])
        assert backend.probabilities()[0] == pytest.approx(1.0)
        shared = backend.to_statevector(copy=False)
        shared.apply_matrix(gates.X, [0])
        assert backend.probabilities()[1] == pytest.approx(1.0)

    def test_abstract_to_statevector_is_optional(self):
        class Minimal(SimulationBackend):
            name = "minimal"

            def initialize(self, num_qubits, initial_state=None):
                return self

            @property
            def num_qubits(self):
                return 0

            def snapshot(self):
                return None

            def restore(self, token):
                return self

            def apply_matrix(self, matrix, qubits):
                return self

            def apply_controlled(self, matrix, controls, targets):
                return self

            def probabilities(self, qubits=None):
                return np.ones(1)

            def sample(self, qubits=None, shots=1, rng=None):
                return np.zeros(shots, dtype=int)

            def measure(self, qubits, rng=None):
                return 0

        with pytest.raises(NotImplementedError):
            Minimal().to_statevector()


class TestKernels:
    """The masked controlled kernel must match the dense controlled unitary."""

    @pytest.mark.parametrize("num_controls", [1, 2, 3])
    @pytest.mark.parametrize("num_targets", [1, 2])
    def test_controlled_matches_dense(self, num_controls, num_targets, rng):
        num_qubits = num_controls + num_targets + 1
        dim = 1 << num_qubits
        amplitudes = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amplitudes /= np.linalg.norm(amplitudes)
        base = np.linalg.qr(
            rng.normal(size=(1 << num_targets, 1 << num_targets))
            + 1j * rng.normal(size=(1 << num_targets, 1 << num_targets))
        )[0]
        order = rng.permutation(num_qubits)
        controls = [int(q) for q in order[:num_controls]]
        targets = [int(q) for q in order[num_controls : num_controls + num_targets]]

        masked = amplitudes.copy()
        apply_controlled(masked, num_qubits, base, controls, targets)

        dense = amplitudes.copy()
        full = gates.controlled(base, num_controls=num_controls)
        apply_matrix(dense, num_qubits, full, controls + targets)

        assert np.allclose(masked, dense, atol=1e-12)

    def test_untouched_amplitudes_are_bit_identical(self, rng):
        """The masked kernel must not even renormalise the identity subspace."""
        amplitudes = rng.normal(size=8) + 1j * rng.normal(size=8)
        original = amplitudes.copy()
        apply_controlled(amplitudes, 3, gates.X, [0], [1])
        untouched = [i for i in range(8) if (i & 1) == 0]
        assert all(amplitudes[i] == original[i] for i in untouched)

    def test_single_qubit_fast_path(self, rng):
        amplitudes = rng.normal(size=16) + 1j * rng.normal(size=16)
        for qubit in range(4):
            fast = amplitudes.copy()
            apply_matrix(fast, 4, gates.H, [qubit])
            reference = Statevector(4, amplitudes.copy())
            reference.apply_matrix(gates.H, [qubit])
            assert np.allclose(fast, reference.data, atol=1e-12)


class TestProgramBackendRouting:
    def test_simulate_accepts_backend_name(self):
        program = Program()
        q = program.qreg("q", 1)
        program.h(q[0])
        state = program.simulate(backend="statevector")
        assert state.probabilities()[0] == pytest.approx(0.5)

    def test_simulate_leaves_state_on_explicit_backend(self):
        program = Program()
        q = program.qreg("q", 2)
        program.h(q[0])
        program.cnot(q[0], q[1])
        backend = StatevectorBackend()
        state = program.simulate(backend=backend)
        assert backend.gates_applied == 2
        assert np.allclose(backend.probabilities(), state.probabilities())
        # The returned state is a copy, not an alias of the backend state.
        state.apply_matrix(gates.X, [0])
        assert not np.allclose(backend.probabilities(), state.probabilities())

    def test_simulate_unknown_backend_raises(self):
        program = Program()
        program.qreg("q", 1)
        with pytest.raises(KeyError):
            program.simulate(backend="density_matrix")

    def test_unitary_through_backend(self):
        program = Program()
        q = program.qreg("q", 1)
        program.h(q[0])
        assert np.allclose(program.unitary(backend="statevector"), gates.H)
