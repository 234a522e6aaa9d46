"""Tests for fermionic operators and the Jordan-Wigner transform."""

import numpy as np
import pytest

from repro.chemistry import FermionOperator, jordan_wigner, jordan_wigner_ladder
from repro.observables import PauliString, PauliSum


class TestFermionOperator:
    def test_constructors(self):
        creation = FermionOperator.creation(1)
        annihilation = FermionOperator.annihilation(0)
        number = FermionOperator.number(2)
        assert creation.num_modes() == 2
        assert annihilation.num_modes() == 1
        assert number.num_modes() == 3
        assert len(FermionOperator.identity()) == 1

    def test_addition_merges_terms(self):
        a = FermionOperator.number(0, 1.0)
        b = FermionOperator.number(0, 2.0)
        combined = a + b
        assert len(combined) == 1
        assert list(combined.terms.values())[0] == pytest.approx(3.0)

    def test_cancellation_removes_terms(self):
        a = FermionOperator.number(0, 1.0)
        assert len(a - a) == 0

    def test_multiplication_concatenates(self):
        product = FermionOperator.creation(0) * FermionOperator.annihilation(1)
        ((operators, coefficient),) = product.terms.items()
        assert operators == ((0, True), (1, False))
        assert coefficient == 1.0

    def test_scalar_multiplication(self):
        scaled = FermionOperator.number(0) * 2.5
        assert list(scaled.terms.values())[0] == pytest.approx(2.5)

    def test_hermitian_conjugate(self):
        term = FermionOperator.from_term(((0, True), (1, False)), 2.0j)
        conjugate = term.hermitian_conjugate()
        ((operators, coefficient),) = conjugate.terms.items()
        assert operators == ((1, True), (0, False))
        assert coefficient == pytest.approx(-2.0j)

    def test_is_hermitian(self):
        hopping = FermionOperator.from_term(((0, True), (1, False)), 1.0)
        assert not hopping.is_hermitian()
        assert (hopping + hopping.hermitian_conjugate()).is_hermitian()
        assert FermionOperator.number(0).is_hermitian()

    def test_number_operator_matrix(self):
        matrix = FermionOperator.number(0).to_matrix(2)
        assert np.allclose(np.diag(matrix), [0, 1, 0, 1])

    def test_anticommutation_relations(self):
        """{a_p, a_q^dag} = delta_pq and {a_p, a_q} = 0 as matrices."""
        modes = 3
        for p in range(modes):
            for q in range(modes):
                a_p = FermionOperator.annihilation(p).to_matrix(modes)
                a_q_dag = FermionOperator.creation(q).to_matrix(modes)
                a_q = FermionOperator.annihilation(q).to_matrix(modes)
                anticommutator = a_p @ a_q_dag + a_q_dag @ a_p
                expected = np.eye(1 << modes) if p == q else np.zeros((1 << modes,) * 2)
                assert np.allclose(anticommutator, expected), (p, q)
                assert np.allclose(a_p @ a_q + a_q @ a_p, 0.0)

    def test_creation_squared_is_zero(self):
        squared = FermionOperator.creation(1) * FermionOperator.creation(1)
        assert np.allclose(squared.to_matrix(2), 0.0)


class TestJordanWigner:
    def test_ladder_operator_form(self):
        lowering = jordan_wigner_ladder(0, False, 2)
        labels = {term.label(): term.coefficient for term in lowering.terms}
        assert labels["XI"] == pytest.approx(0.5)
        assert labels["YI"] == pytest.approx(0.5j)

    def test_creation_has_z_string(self):
        raising = jordan_wigner_ladder(2, True, 3)
        for term in raising.terms:
            assert term.ops[0] == "Z" and term.ops[1] == "Z"

    def test_out_of_range_mode(self):
        with pytest.raises(ValueError):
            jordan_wigner_ladder(3, True, 3)

    def test_number_operator_transform(self):
        number = jordan_wigner(FermionOperator.number(0), num_qubits=1)
        matrix = number.to_matrix()
        assert np.allclose(matrix, np.diag([0.0, 1.0]))

    def test_transform_matches_dense_fermionic_matrix(self):
        """JW(PauliSum) and the direct occupation-basis matrix must agree."""
        operator = (
            FermionOperator.from_term(((0, True), (1, False)), 0.7)
            + FermionOperator.from_term(((1, True), (0, False)), 0.7)
            + FermionOperator.number(2, -0.3)
            + FermionOperator.from_term(((2, True), (0, True), (0, False), (2, False)), 1.1)
        )
        transformed = jordan_wigner(operator, num_qubits=3)
        assert np.allclose(transformed.to_matrix(), operator.to_matrix(3), atol=1e-10)

    def test_transform_preserves_hermiticity(self):
        hopping = FermionOperator.from_term(((0, True), (2, False)), 1.0)
        hermitian = hopping + hopping.hermitian_conjugate()
        qubit_operator = jordan_wigner(hermitian, num_qubits=3)
        assert qubit_operator.is_hermitian()

    def test_empty_operator_requires_qubit_count(self):
        with pytest.raises(ValueError):
            jordan_wigner(FermionOperator())

    def test_identity_passthrough(self):
        identity = jordan_wigner(FermionOperator.identity(2.0), num_qubits=2)
        assert np.allclose(identity.to_matrix(), 2.0 * np.eye(4))
