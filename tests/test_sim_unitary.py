"""Tests for the closed-form unitary oracles used in cross-validation."""

import numpy as np
import pytest

from repro.sim import Statevector, gates
from unitary_oracles import (
    adder_permutation,
    dft_matrix,
    embed_matrix,
    modular_multiplication_permutation,
    permutation_matrix,
    unitary_from_applications,
)


class TestDftMatrix:
    def test_is_unitary(self):
        for n in (1, 2, 3, 4):
            assert gates.is_unitary(dft_matrix(n))

    def test_inverse_is_conjugate_transpose(self):
        forward = dft_matrix(3)
        inverse = dft_matrix(3, inverse=True)
        assert np.allclose(forward @ inverse, np.eye(8))
        assert np.allclose(inverse, forward.conj().T)

    def test_one_qubit_dft_is_hadamard(self):
        assert np.allclose(dft_matrix(1), gates.H)

    def test_column_zero_is_uniform(self):
        matrix = dft_matrix(3)
        assert np.allclose(matrix[:, 0], np.full(8, 1 / np.sqrt(8)))


class TestPermutations:
    def test_permutation_matrix_round_trip(self):
        mapping = [2, 0, 3, 1]
        matrix = permutation_matrix(mapping)
        for source, destination in enumerate(mapping):
            state = np.zeros(4)
            state[source] = 1.0
            assert (matrix @ state)[destination] == 1.0

    def test_permutation_matrix_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            permutation_matrix([0, 0, 1, 2])

    def test_adder_permutation_wraps(self):
        matrix = adder_permutation(2, 3)
        state = np.zeros(4)
        state[2] = 1.0
        assert (matrix @ state)[1] == 1.0  # (2 + 3) mod 4 = 1

    def test_modular_multiplication_permutation(self):
        matrix = modular_multiplication_permutation(4, 7, 15)
        for x in range(15):
            state = np.zeros(16)
            state[x] = 1.0
            assert (matrix @ state)[(7 * x) % 15] == 1.0
        # 15 itself is outside the modulus and must stay put.
        state = np.zeros(16)
        state[15] = 1.0
        assert (matrix @ state)[15] == 1.0

    def test_modular_multiplication_requires_coprime(self):
        with pytest.raises(ValueError):
            modular_multiplication_permutation(4, 5, 15)

    def test_modular_multiplication_requires_fit(self):
        with pytest.raises(ValueError):
            modular_multiplication_permutation(3, 7, 15)


class TestEmbedding:
    def test_embed_single_qubit_gate(self):
        embedded = embed_matrix(gates.X, [1], 2)
        state = np.zeros(4)
        state[0] = 1.0
        assert (embedded @ state)[2] == 1.0

    def test_embed_matches_statevector_application(self):
        embedded = embed_matrix(gates.CNOT, [0, 2], 3)
        for basis in range(8):
            reference = Statevector.from_int(basis, 3)
            reference.apply_matrix(gates.CNOT, [0, 2])
            assert np.allclose(embedded[:, basis], reference.data)

    def test_unitary_from_applications_composes_in_order(self):
        applications = [(gates.H, [0]), (gates.CNOT, [0, 1])]
        matrix = unitary_from_applications(applications, 2)
        state = matrix @ np.array([1, 0, 0, 0], dtype=complex)
        assert np.allclose(np.abs(state) ** 2, [0.5, 0, 0, 0.5])
