"""Tests for the QFT subroutines and the Listing 1 harness."""

import numpy as np
import pytest

from repro.algorithms.qft import (
    append_iqft,
    append_qft,
    build_qft_program,
    build_qft_test_harness,
)
from repro.core import RunConfig, check_program
from repro.lang import Program
from unitary_oracles import dft_matrix


class TestQftUnitary:
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_qft_with_swaps_equals_dft(self, width):
        program = build_qft_program(width, swaps=True)
        assert np.allclose(program.unitary(), dft_matrix(width), atol=1e-10)

    @pytest.mark.parametrize("width", [2, 3])
    def test_qft_without_swaps_is_bit_reversed_dft(self, width):
        program = build_qft_program(width, swaps=False)
        matrix = program.unitary()
        dft = dft_matrix(width)
        # The swap-free QFT equals the DFT with output bits reversed.
        dim = 1 << width
        reversal = np.zeros((dim, dim))
        for value in range(dim):
            reversed_value = int(format(value, f"0{width}b")[::-1], 2)
            reversal[reversed_value, value] = 1.0
        assert np.allclose(reversal @ matrix, dft, atol=1e-10)

    @pytest.mark.parametrize("swaps", [False, True])
    def test_iqft_is_inverse(self, swaps):
        program = Program()
        q = program.qreg("q", 3)
        append_qft(program, q, swaps=swaps)
        append_iqft(program, q, swaps=swaps)
        assert np.allclose(program.unitary(), np.eye(8), atol=1e-10)

    def test_controlled_qft_identity_when_control_zero(self):
        program = Program()
        c = program.qreg("c", 1)
        q = program.qreg("q", 2)
        append_qft(program, q, controls=c)
        append_iqft(program, q, controls=c)
        assert np.allclose(program.unitary(), np.eye(8), atol=1e-10)

    def test_controlled_qft_acts_when_control_one(self):
        controlled = Program()
        c = controlled.qreg("c", 1)
        q = controlled.qreg("q", 2)
        controlled.x(c[0])
        append_qft(controlled, q, controls=c)
        state = controlled.simulate()
        probabilities = state.probabilities([controlled.qubit_index(qb) for qb in q])
        assert np.allclose(probabilities, [0.25] * 4)

    def test_qft_on_uniform_state_returns_zero(self):
        program = Program()
        q = program.qreg("q", 3)
        for qubit in q:
            program.h(qubit)
        append_iqft(program, q)
        state = program.simulate()
        assert state.probability_of_outcome(
            [program.qubit_index(qb) for qb in q], 0
        ) == pytest.approx(1.0)


class TestListing1Harness:
    def test_harness_passes_all_three_assertions(self, rng):
        report = check_program(
            build_qft_test_harness(),
            RunConfig(ensemble_size=64),
            rng=rng,
        )
        assert report.passed, report.summary()
        assert report.num_breakpoints == 3
        types = [r.outcome.assertion_type for r in report.records]
        assert types == ["classical", "superposition", "classical"]

    def test_harness_with_other_values(self, rng):
        report = check_program(
            build_qft_test_harness(width=3, value=6),
            RunConfig(ensemble_size=64),
            rng=rng,
        )
        assert report.passed

    def test_value_out_of_range(self):
        with pytest.raises(ValueError):
            build_qft_test_harness(width=3, value=9)

    def test_classical_pvalues_are_exactly_one(self, rng):
        report = check_program(
            build_qft_test_harness(),
            RunConfig(ensemble_size=32),
            rng=rng,
        )
        assert report.records[0].p_value == 1.0
        assert report.records[2].p_value == 1.0
