"""Tests for Shor's algorithm: Table 2, Table 3, assertions and post-processing."""

import numpy as np
import pytest

from repro.algorithms.shor import (
    build_shor_program,
    expected_output_values,
    factors_from_order,
    order_from_measurement,
    run_shor,
    shor_joint_distribution,
    table2_rows,
)
from repro.core import RunConfig, check_program


class TestClassicalDriver:
    def test_table2_rows_match_paper(self):
        rows = table2_rows(modulus=15, base=7, iterations=4)
        assert [row["a"] for row in rows] == [7, 4, 1, 1]
        assert [row["a_inv"] for row in rows] == [13, 4, 1, 1]

    def test_expected_output_values(self):
        assert expected_output_values(15, 7, 3) == [0, 2, 4, 6]
        assert expected_output_values(15, 7, 4) == [0, 4, 8, 12]

    def test_order_from_measurement(self):
        assert order_from_measurement(2, 3, 15, 7) == 4
        assert order_from_measurement(6, 3, 15, 7) == 4
        assert order_from_measurement(0, 3, 15, 7) is None

    def test_factors_from_order(self):
        assert factors_from_order(15, 7, 4) == (3, 5)
        assert factors_from_order(15, 7, 3) is None  # odd order
        assert factors_from_order(15, 14, 2) is None  # a^{r/2} = -1 mod N

    def test_build_rejects_non_coprime_base(self):
        with pytest.raises(ValueError):
            build_shor_program(modulus=15, base=5)


class TestShorCircuit:
    @pytest.fixture(scope="class")
    def correct_circuit(self):
        return build_shor_program(modulus=15, base=7, num_output_bits=3)

    @pytest.fixture(scope="class")
    def buggy_circuit(self):
        return build_shor_program(
            modulus=15, base=7, num_output_bits=3, inverse_overrides={0: 12}
        )

    def test_output_distribution_is_uniform_over_multiples(self, correct_circuit):
        program = correct_circuit.program.without_assertions()
        state = program.simulate()
        output_indices = [program.qubit_index(q) for q in correct_circuit.control_register]
        distribution = state.probabilities(output_indices)
        expected = np.zeros(8)
        expected[[0, 2, 4, 6]] = 0.25
        assert np.allclose(distribution, expected, atol=1e-9)

    def test_work_register_cleared_when_correct(self, correct_circuit):
        table = shor_joint_distribution(correct_circuit)
        assert table[0].sum() == pytest.approx(1.0)
        assert np.allclose(table[1:, :], 0.0, atol=1e-9)

    def test_assertions_pass_on_correct_program(self, correct_circuit):
        report = check_program(
            correct_circuit.program,
            RunConfig(ensemble_size=32, seed=5),
        )
        assert report.passed, report.summary()
        assert report.num_breakpoints == 4

    def test_table3_joint_distribution_shape(self, buggy_circuit):
        """Table 3: ancilla 0 with prob 1/2 (outputs 0,2,4,6 at 1/8), rest uniform 1/64."""
        table = shor_joint_distribution(buggy_circuit)
        # Row 0 (ancilla measured 0): probability 1/8 at outputs 0, 2, 4, 6.
        expected_row0 = np.zeros(8)
        expected_row0[[0, 2, 4, 6]] = 1 / 8
        assert np.allclose(table[0], expected_row0, atol=1e-9)
        assert table[0].sum() == pytest.approx(0.5)
        # Exactly four non-zero ancilla values, each a uniform row of 1/64.
        nonzero_rows = [
            row_index
            for row_index in range(1, table.shape[0])
            if table[row_index].sum() > 1e-9
        ]
        assert len(nonzero_rows) == 4
        for row_index in nonzero_rows:
            assert np.allclose(table[row_index], np.full(8, 1 / 64), atol=1e-9)

    def test_table3_nonzero_ancilla_values_match_paper(self, buggy_circuit):
        table = shor_joint_distribution(buggy_circuit)
        nonzero = {i for i in range(table.shape[0]) if table[i].sum() > 1e-9}
        assert nonzero == {0, 2, 7, 8, 13}

    def test_assertions_catch_wrong_inverse(self, buggy_circuit):
        report = check_program(
            buggy_circuit.program,
            RunConfig(ensemble_size=32, seed=5),
        )
        assert not report.passed
        failing_types = {r.outcome.assertion_type for r in report.failures()}
        assert "classical" in failing_types  # ancilla no longer returns to 0


class TestEndToEnd:
    def test_run_shor_factors_fifteen(self):
        result = run_shor(modulus=15, base=7, shots=64, rng=1)
        assert result["factors"] == (3, 5)
        assert result["order"] == 4
        assert set(result["counts"]) <= {0, 2, 4, 6}
        assert result["expected_outputs"] == [0, 2, 4, 6]

    def test_run_shor_other_base(self):
        result = run_shor(modulus=15, base=2, shots=64, rng=3)
        assert result["factors"] == (3, 5)

    def test_run_shor_base_eleven(self):
        # 11 has order 2 mod 15; with 3 output bits the outputs are 0 and 4.
        result = run_shor(modulus=15, base=11, shots=64, rng=4)
        assert result["factors"] == (3, 5)
        assert set(result["counts"]) <= {0, 4}
