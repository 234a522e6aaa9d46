"""Tests for the Bernstein-Vazirani and Deutsch-Jozsa primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.oracles import (
    build_bernstein_vazirani_program,
    build_deutsch_jozsa_program,
    run_bernstein_vazirani,
    run_deutsch_jozsa,
)
from repro.core import RunConfig, check_program


class TestBernsteinVazirani:
    @pytest.mark.parametrize("hidden", [0, 1, 0b101, 0b1111])
    def test_recovers_hidden_string(self, hidden):
        result = run_bernstein_vazirani(hidden, 4, rng=0)
        assert result["success"]
        assert result["recovered"] == hidden
        assert set(result["counts"]) == {hidden}

    def test_single_query_structure(self):
        program, _ = build_bernstein_vazirani_program(0b011, 3, with_assertions=False)
        cnots = [i for i in program.gate_instructions() if i.name == "x" and i.controls]
        assert len(cnots) == 2  # one per set bit of the hidden string

    def test_assertions_pass(self, rng):
        program, _ = build_bernstein_vazirani_program(0b110, 3)
        report = check_program(program, RunConfig(ensemble_size=32), rng=rng)
        assert report.passed
        assert [r.outcome.assertion_type for r in report.records] == [
            "superposition",
            "classical",
        ]

    def test_wrong_expectation_is_caught(self, rng):
        """If the programmer asserts the wrong hidden string, the checker objects."""
        program, query = build_bernstein_vazirani_program(0b110, 3, with_assertions=False)
        # Insert a deliberately wrong postcondition before the measurement.
        program.assert_classical(query, 0b011, label="wrong expectation")
        report = check_program(program, RunConfig(ensemble_size=16), rng=rng)
        assert not report.passed

    def test_out_of_range_hidden_string(self):
        with pytest.raises(ValueError):
            build_bernstein_vazirani_program(8, 3)

    @given(hidden=st.integers(0, 31))
    @settings(max_examples=20, deadline=None)
    def test_property_any_hidden_string(self, hidden):
        assert run_bernstein_vazirani(hidden, 5, shots=8, rng=1)["success"]


class TestDeutschJozsa:
    @pytest.mark.parametrize("kind", ["constant0", "constant1"])
    def test_constant_oracles_decided_constant(self, kind):
        result = run_deutsch_jozsa(kind, 3, rng=0)
        assert result.correct
        assert result.decided_constant
        assert result.measured == 0

    @pytest.mark.parametrize("mask", [0b1, 0b101, 0b111])
    def test_balanced_oracles_decided_balanced(self, mask):
        result = run_deutsch_jozsa("balanced", 3, balanced_mask=mask, rng=0)
        assert result.correct
        assert not result.decided_constant
        assert result.measured == mask

    def test_assertions_pass_for_both_kinds(self):
        # A fixed seed keeps the 5%-per-breakpoint false-positive chance of the
        # superposition assertion from making this test flaky.
        for kind in ("constant0", "balanced"):
            program, _ = build_deutsch_jozsa_program(kind, 3)
            report = check_program(program, RunConfig(ensemble_size=32, seed=3))
            assert report.passed, kind

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_deutsch_jozsa_program("random", 3)
        with pytest.raises(ValueError):
            build_deutsch_jozsa_program("balanced", 3, balanced_mask=0)
