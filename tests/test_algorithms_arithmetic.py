"""Tests for the Fourier-space constant adder (Listings 2-3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.arithmetic import (
    append_add_const,
    append_phi_add_const,
    append_phi_sub_const,
    build_cadd_program,
    build_cadd_test_harness,
)
from repro.algorithms.qft import append_iqft, append_qft
from repro.core import RunConfig, check_program
from repro.lang import Program
from unitary_oracles import adder_permutation


class TestAdderUnitary:
    @pytest.mark.parametrize("width", [2, 3])
    def test_adder_matches_permutation_for_every_constant(self, width):
        for constant in range(1 << width):
            program = build_cadd_program(width, constant)
            assert np.allclose(
                program.unitary(), adder_permutation(width, constant), atol=1e-9
            ), f"width={width} constant={constant}"

    def test_subtraction_is_adder_inverse(self):
        program = Program()
        b = program.qreg("b", 3)
        append_qft(program, b)
        append_phi_add_const(program, b, 5)
        append_phi_sub_const(program, b, 5)
        append_iqft(program, b)
        assert np.allclose(program.unitary(), np.eye(8), atol=1e-10)

    def test_addition_wraps_modulo_power_of_two(self):
        program = Program()
        b = program.qreg("b", 3)
        program.prepare_int(b, 6)
        append_add_const(program, b, 5)
        state = program.simulate()
        indices = [program.qubit_index(q) for q in b]
        assert state.probability_of_outcome(indices, (6 + 5) % 8) == pytest.approx(1.0)

    @given(width=st.integers(2, 4), b_value=st.integers(0, 15), constant=st.integers(0, 15))
    @settings(max_examples=40, deadline=None)
    def test_adder_property(self, width, b_value, constant):
        b_value %= 1 << width
        constant %= 1 << width
        program = Program()
        b = program.qreg("b", width)
        program.prepare_int(b, b_value)
        append_add_const(program, b, constant)
        state = program.simulate()
        indices = [program.qubit_index(q) for q in b]
        expected = (b_value + constant) % (1 << width)
        assert state.probability_of_outcome(indices, expected) == pytest.approx(1.0)


class TestControlledAdder:
    def test_controlled_adder_inactive_without_controls_set(self):
        program = Program()
        ctrl = program.qreg("ctrl", 2)
        b = program.qreg("b", 3)
        program.prepare_int(b, 3)
        append_qft(program, b)
        append_phi_add_const(program, b, 2, controls=ctrl)
        append_iqft(program, b)
        state = program.simulate()
        indices = [program.qubit_index(q) for q in b]
        assert state.probability_of_outcome(indices, 3) == pytest.approx(1.0)

    def test_controlled_adder_active_when_controls_set(self):
        program = Program()
        ctrl = program.qreg("ctrl", 2)
        b = program.qreg("b", 3)
        program.x(ctrl[0])
        program.x(ctrl[1])
        program.prepare_int(b, 3)
        append_qft(program, b)
        append_phi_add_const(program, b, 2, controls=ctrl)
        append_iqft(program, b)
        state = program.simulate()
        indices = [program.qubit_index(q) for q in b]
        assert state.probability_of_outcome(indices, 5) == pytest.approx(1.0)

    def test_single_control_superposition_entangles(self):
        program = Program()
        ctrl = program.qreg("ctrl", 1)
        b = program.qreg("b", 3)
        program.h(ctrl[0])
        program.prepare_int(b, 1)
        append_qft(program, b)
        append_phi_add_const(program, b, 4, controls=ctrl)
        append_iqft(program, b)
        program.assert_entangled(ctrl, b)
        report = check_program(program, RunConfig(ensemble_size=32, seed=11))
        assert report.passed


class TestListing3Harness:
    def test_correct_adder_passes_postcondition(self, rng):
        report = check_program(
            build_cadd_test_harness(),
            RunConfig(ensemble_size=16),
            rng=rng,
        )
        assert report.passed
        assert report.p_values() == [1.0, 1.0]

    def test_flipped_angles_bug_gives_pvalue_zero(self, rng):
        """Section 4.3: the Table 1 bug makes the output assertion return p = 0.0."""
        report = check_program(
            build_cadd_test_harness(angle_sign=-1.0),
            RunConfig(ensemble_size=16),
            rng=rng,
        )
        assert not report.passed
        assert report.records[0].p_value == 1.0  # precondition still fine
        assert report.records[1].p_value == 0.0  # postcondition catches the bug

    def test_harness_width_check(self):
        with pytest.raises(ValueError):
            build_cadd_test_harness(width=4, b_value=12, constant=13)

    def test_other_operand_values(self, rng):
        report = check_program(
            build_cadd_test_harness(width=6, b_value=20, constant=21),
            RunConfig(ensemble_size=16),
            rng=rng,
        )
        assert report.passed
