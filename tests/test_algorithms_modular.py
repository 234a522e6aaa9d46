"""Tests for the Beauregard modular arithmetic and the Listing 4 harness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.modular import (
    append_cmodmul,
    append_cmult_inplace,
    append_phi_add_const_mod,
    build_cmodmul_test_harness,
    modular_inverse,
)
from repro.algorithms.qft import append_iqft, append_qft
from repro.core import RunConfig, check_program
from repro.lang import Program


class TestModularInverse:
    def test_known_values(self):
        assert modular_inverse(7, 15) == 13
        assert modular_inverse(4, 15) == 4
        assert modular_inverse(13, 15) == 7
        assert modular_inverse(1, 15) == 1

    def test_inverse_property(self):
        for modulus in (7, 15, 21):
            for value in range(1, modulus):
                if np.gcd(value, modulus) == 1:
                    assert (value * modular_inverse(value, modulus)) % modulus == 1

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            modular_inverse(5, 15)


def _run_modular_add(n_bits, modulus, constant, b_value, controls_value=None):
    """Simulate one modular addition and return the resulting b value."""
    program = Program()
    controls = None
    if controls_value is not None:
        controls = program.qreg("ctrl", 1)
        if controls_value:
            program.x(controls[0])
    b = program.qreg("b", n_bits + 1)
    ancilla = program.qreg("anc", 1)
    program.prepare_int(b, b_value)
    append_qft(program, b)
    append_phi_add_const_mod(
        program, b, constant, modulus, ancilla[0], controls=controls
    )
    append_iqft(program, b)
    state = program.simulate()
    b_indices = [program.qubit_index(q) for q in b]
    ancilla_index = [program.qubit_index(ancilla[0])]
    distribution = state.probabilities(b_indices)
    result = int(np.argmax(distribution))
    assert distribution[result] == pytest.approx(1.0), "modular adder left a superposition"
    assert state.probability_of_outcome(ancilla_index, 0) == pytest.approx(1.0)
    return result


class TestModularAdder:
    def test_exhaustive_small_modulus(self):
        modulus = 7
        for constant in range(modulus):
            for b_value in range(modulus):
                result = _run_modular_add(3, modulus, constant, b_value)
                assert result == (b_value + constant) % modulus

    def test_modulus_15_spot_checks(self):
        for constant, b_value in [(7, 8), (13, 13), (4, 11), (1, 0)]:
            result = _run_modular_add(4, modulus := 15, constant, b_value)
            assert result == (b_value + constant) % modulus

    def test_controlled_version_respects_control(self):
        assert _run_modular_add(3, 7, 5, 4, controls_value=0) == 4
        assert _run_modular_add(3, 7, 5, 4, controls_value=1) == 2

    def test_register_width_validation(self):
        program = Program()
        b = program.qreg("b", 4)
        ancilla = program.qreg("anc", 1)
        with pytest.raises(ValueError):
            append_phi_add_const_mod(program, b, 3, 15, ancilla[0])

    @given(constant=st.integers(0, 14), b_value=st.integers(0, 14))
    @settings(max_examples=20, deadline=None)
    def test_modular_adder_property(self, constant, b_value):
        assert _run_modular_add(4, 15, constant, b_value) == (b_value + constant) % 15


class TestControlledModularMultiplier:
    def _run_cmodmul(self, control_value, x_value, b_value, multiplier, modulus=15):
        program = Program()
        ctrl = program.qreg("ctrl", 1)
        if control_value:
            program.x(ctrl[0])
        x = program.qreg("x", 4)
        b = program.qreg("b", 5)
        ancilla = program.qreg("anc", 1)
        program.prepare_int(x, x_value)
        program.prepare_int(b, b_value)
        append_cmodmul(program, ctrl[0], x, b, multiplier, modulus, ancilla[0])
        state = program.simulate()
        b_indices = [program.qubit_index(q) for q in b]
        return int(np.argmax(state.probabilities(b_indices)))

    def test_multiply_accumulate_when_control_set(self):
        # b <- b + a*x mod N : 7 + 7*6 mod 15 = 4 (the Listing 4 numbers)
        assert self._run_cmodmul(1, 6, 7, 7) == 4

    def test_no_action_when_control_clear(self):
        assert self._run_cmodmul(0, 6, 7, 7) == 7

    def test_second_multiplication_restores_value(self):
        # 4 + 13*6 mod 15 = 7, the inverse step of Listing 4.
        assert self._run_cmodmul(1, 6, 4, 13) == 7

    def test_inplace_multiplier_maps_x_correctly(self):
        for x_value in (1, 3, 6, 11):
            program = Program()
            ctrl = program.qreg("ctrl", 1)
            program.x(ctrl[0])
            x = program.qreg("x", 4)
            b = program.qreg("b", 5)
            ancilla = program.qreg("anc", 1)
            program.prepare_int(x, x_value)
            append_cmult_inplace(program, ctrl[0], x, b, 7, 15, ancilla[0])
            state = program.simulate()
            x_indices = [program.qubit_index(q) for q in x]
            b_indices = [program.qubit_index(q) for q in b]
            assert int(np.argmax(state.probabilities(x_indices))) == (7 * x_value) % 15
            assert state.probability_of_outcome(b_indices, 0) == pytest.approx(1.0)

    def test_inplace_multiplier_identity_when_control_clear(self):
        program = Program()
        ctrl = program.qreg("ctrl", 1)
        x = program.qreg("x", 4)
        b = program.qreg("b", 5)
        ancilla = program.qreg("anc", 1)
        program.prepare_int(x, 9)
        append_cmult_inplace(program, ctrl[0], x, b, 7, 15, ancilla[0])
        state = program.simulate()
        x_indices = [program.qubit_index(q) for q in x]
        assert state.probability_of_outcome(x_indices, 9) == pytest.approx(1.0)


class TestListing4Harness:
    def test_correct_harness_reproduces_paper_pvalues(self):
        """Section 4.4/4.5: entangled p ~= 0.0005, product p = 1.0 at 16 samples."""
        report = check_program(
            build_cmodmul_test_harness(),
            RunConfig(ensemble_size=16, seed=0),
        )
        assert report.passed
        by_type = {r.outcome.assertion_type: r.p_value for r in report.records}
        assert by_type["entangled"] == pytest.approx(0.000465, abs=5e-4)
        assert by_type["product"] == 1.0

    def test_wrong_modular_inverse_detected(self):
        """Section 4.5: a_inv = 12 leaves the registers entangled (small p)."""
        report = check_program(
            build_cmodmul_test_harness(inverse_multiplier=12),
            RunConfig(ensemble_size=16, seed=0),
        )
        assert not report.passed
        product_record = next(
            r for r in report.records if r.outcome.assertion_type == "product"
        )
        assert product_record.p_value < 0.05

    def test_control_routing_bug_detected(self):
        """Section 4.4: mis-routed controls make the entanglement assertion fail."""
        report = check_program(
            build_cmodmul_test_harness(control_bug_duplicate=True),
            RunConfig(ensemble_size=16, seed=0),
        )
        entangled_record = next(
            r for r in report.records if r.outcome.assertion_type == "entangled"
        )
        assert not entangled_record.passed
        assert entangled_record.p_value > 0.05
