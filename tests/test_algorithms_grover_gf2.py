"""Tests for GF(2^m) arithmetic and the Grover square-root search (Table 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.gf2 import GF2Field
from repro.algorithms.grover import (
    build_grover_program,
    grover_success_probability,
    optimal_iterations,
    run_grover,
)
from repro.core import RunConfig, check_program
from repro.lang import auto_place_assertions


class TestGF2Field:
    def test_field_construction(self):
        field = GF2Field(3)
        assert field.order == 8
        assert "GF2Field" in repr(field)

    def test_bad_degree_or_modulus(self):
        with pytest.raises(ValueError):
            GF2Field(0)
        with pytest.raises(ValueError):
            GF2Field(3, modulus_polynomial=0b111)  # degree 2 polynomial
        with pytest.raises(ValueError):
            GF2Field(20)  # no default polynomial stored

    def test_addition_is_xor(self):
        field = GF2Field(4)
        assert field.add(0b1010, 0b0110) == 0b1100

    def test_multiplication_by_one_and_zero(self):
        field = GF2Field(4)
        for a in field.elements():
            assert field.multiply(a, 1) == a
            assert field.multiply(a, 0) == 0

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_multiplication_commutative_and_associative(self, degree):
        field = GF2Field(degree)
        elements = list(field.elements())
        for a in elements[:5]:
            for b in elements[:5]:
                assert field.multiply(a, b) == field.multiply(b, a)
                for c in elements[:3]:
                    assert field.multiply(field.multiply(a, b), c) == field.multiply(
                        a, field.multiply(b, c)
                    )

    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_every_nonzero_element_has_inverse(self, degree):
        field = GF2Field(degree)
        for a in range(1, field.order):
            assert field.multiply(a, field.inverse(a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            GF2Field(3).inverse(0)

    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_sqrt_inverts_squaring(self, degree):
        field = GF2Field(degree)
        for a in field.elements():
            assert field.square(field.sqrt(a)) == a
            assert field.sqrt(field.square(a)) == a

    def test_squaring_matrix_reproduces_square(self):
        field = GF2Field(4)
        matrix = field.squaring_matrix()
        for a in field.elements():
            assert field.apply_bit_matrix(matrix, a) == field.square(a)

    def test_squaring_matrix_invertible(self):
        field = GF2Field(5)
        matrix = field.squaring_matrix().astype(int)
        # Invertible over GF(2): determinant must be odd.
        determinant = int(round(np.linalg.det(matrix)))
        assert determinant % 2 == 1

    @given(degree=st.sampled_from([2, 3, 4]), a=st.integers(0, 15), b=st.integers(0, 15))
    @settings(max_examples=60, deadline=None)
    def test_frobenius_property(self, degree, a, b):
        """(a + b)^2 = a^2 + b^2 in characteristic 2."""
        field = GF2Field(degree)
        a %= field.order
        b %= field.order
        assert field.square(field.add(a, b)) == field.add(field.square(a), field.square(b))


class TestGrover:
    def test_optimal_iterations(self):
        assert optimal_iterations(8) == 2
        assert optimal_iterations(16) == 3
        assert optimal_iterations(4) == 1
        with pytest.raises(ValueError):
            optimal_iterations(0)

    @pytest.mark.parametrize("style", ["projectq", "scaffold"])
    def test_search_finds_square_root(self, style):
        result = run_grover(degree=3, target=5, style=style, rng=2)
        assert result["found"]
        assert result["expected"] == GF2Field(3).sqrt(5)
        assert result["success_probability"] > 0.8

    def test_both_styles_produce_identical_distributions(self):
        a = build_grover_program(degree=3, target=6, style="projectq", with_assertions=False)
        b = build_grover_program(degree=3, target=6, style="scaffold", with_assertions=False)
        prog_a = a.program.without_assertions()
        prog_b = b.program.without_assertions()
        state_a = prog_a.simulate()
        state_b = prog_b.simulate()
        dist_a = state_a.probabilities([prog_a.qubit_index(q) for q in a.search_register])
        dist_b = state_b.probabilities([prog_b.qubit_index(q) for q in b.search_register])
        assert np.allclose(dist_a, dist_b, atol=1e-9)

    @pytest.mark.parametrize("target", [0, 1, 3, 7])
    def test_search_works_for_various_targets(self, target):
        circuit = build_grover_program(degree=3, target=target, with_assertions=False)
        assert grover_success_probability(circuit) > 0.8

    def test_degree_four_search(self):
        result = run_grover(degree=4, target=9, rng=5)
        assert result["found"]
        assert result["iterations"] == 3

    def test_assertions_pass_on_correct_program(self):
        circuit = build_grover_program(degree=3, target=5, style="projectq")
        report = check_program(circuit.program, RunConfig(ensemble_size=32, seed=3))
        assert report.passed, report.summary()
        types = [r.outcome.assertion_type for r in report.records]
        assert types == ["superposition", "classical", "product"]

    def test_scaffold_style_assertions_pass(self):
        circuit = build_grover_program(degree=3, target=5, style="scaffold")
        report = check_program(circuit.program, RunConfig(ensemble_size=32, seed=3))
        assert report.passed

    def test_auto_placed_assertions_match_manual_intent(self):
        """Section 5.1.1: the pattern scanner places the product assertions itself.

        Only the reliable compute/uncompute (product) suggestions are inserted;
        the control-block entanglement suggestions are heuristic hints that a
        programmer would review (the suggestion list still contains them).
        """
        circuit = build_grover_program(degree=3, target=5, style="projectq", with_assertions=False)
        all_suggestions = auto_place_assertions(circuit.program, kinds=("product",))
        assert all_suggestions and all(s.kind == "product" for s in all_suggestions)
        report = check_program(circuit.program, RunConfig(ensemble_size=32, seed=4))
        assert report.passed
        assert all(r.outcome.assertion_type == "product" for r in report.records)

    def test_invalid_style_and_target(self):
        with pytest.raises(ValueError):
            build_grover_program(style="qsharp")
        with pytest.raises(ValueError):
            build_grover_program(degree=3, target=9)
