"""Tests for the end-to-end checker, debug reports and exceptions."""

import numpy as np
import pytest

from repro.core import (
    AssertionViolation,
    RunConfig,
    StatisticalAssertionChecker,
    check_program,
    build_evaluator,
)
from repro.core.report import DebugReport, format_table
from repro.lang import Program
from repro.lang.instructions import (
    ClassicalAssertInstruction,
    EntangledAssertInstruction,
    ProductAssertInstruction,
    SuperpositionAssertInstruction,
)


def bell_program(with_bug=False):
    program = Program("bell")
    q = program.qreg("q", 2)
    program.h(q[0])
    if not with_bug:
        program.cnot(q[0], q[1])
    program.assert_entangled([q[0]], [q[1]], label="bell pair")
    return program


class TestBuildEvaluator:
    def test_mapping_of_all_assertion_types(self):
        program = Program()
        a = program.qreg("a", 2)
        b = program.qreg("b", 1)
        instructions = [
            ClassicalAssertInstruction(measured=tuple(a), value=2),
            SuperpositionAssertInstruction(measured=tuple(a)),
            EntangledAssertInstruction(group_a=tuple(a), group_b=tuple(b)),
            ProductAssertInstruction(group_a=tuple(a), group_b=tuple(b)),
        ]
        types = [build_evaluator(i, 0.05).assertion_type for i in instructions]
        assert types == ["classical", "superposition", "entangled", "product"]

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            build_evaluator("not an assertion", 0.05)


class TestChecker:
    def test_bell_program_passes(self, rng):
        report = check_program(bell_program(), RunConfig(ensemble_size=16), rng=rng)
        assert report.passed
        assert report.num_breakpoints == 1
        assert report.records[0].outcome.assertion_type == "entangled"

    def test_missing_cnot_caught(self, rng):
        report = check_program(
            bell_program(with_bug=True),
            RunConfig(ensemble_size=32),
            rng=rng,
        )
        assert not report.passed
        assert report.first_failure().outcome.assertion_type == "entangled"

    def test_check_raises_on_violation(self, rng):
        checker = StatisticalAssertionChecker(
            bell_program(with_bug=True),
            RunConfig(ensemble_size=32),
            rng=rng,
        )
        with pytest.raises(AssertionViolation) as excinfo:
            checker.check()
        assert excinfo.value.outcome.assertion_type == "entangled"

    def test_check_returns_report_when_clean(self, rng):
        checker = StatisticalAssertionChecker(
            bell_program(),
            RunConfig(ensemble_size=16),
            rng=rng,
        )
        report = checker.check()
        assert report.passed

    def test_rerun_mode_agrees_with_sample_mode(self):
        program = Program()
        q = program.qreg("q", 2)
        program.prepare_int(q, 2)
        program.assert_classical(q, 2)
        for mode in ("sample", "rerun"):
            checker = StatisticalAssertionChecker(
                program,
                RunConfig(ensemble_size=8, seed=0, mode=mode),
            )
            assert checker.run().passed

    def test_multiple_breakpoints_ordered(self, rng):
        program = Program()
        q = program.qreg("q", 2)
        program.prepare_int(q, 1)
        program.assert_classical(q, 1, label="first")
        program.h(q[0])
        program.h(q[1])
        program.assert_superposition(q, label="second")
        report = check_program(program, RunConfig(ensemble_size=64), rng=rng)
        assert [r.name for r in report.records] == ["first", "second"]
        assert [r.gates_before for r in report.records] == [0, 2]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            StatisticalAssertionChecker(bell_program(), RunConfig(ensemble_size=0))
        with pytest.raises(ValueError):
            StatisticalAssertionChecker(bell_program(), RunConfig(mode="teleport"))

    def test_seeded_runs_are_reproducible(self):
        first = check_program(bell_program(), RunConfig(ensemble_size=16, seed=42))
        second = check_program(bell_program(), RunConfig(ensemble_size=16, seed=42))
        assert first.p_values() == second.p_values()


class TestReport:
    def test_summary_contains_table_and_verdict(self, rng):
        report = check_program(bell_program(), RunConfig(ensemble_size=16), rng=rng)
        text = report.summary()
        assert "breakpoint" in text
        assert "ALL ASSERTIONS HELD" in text
        assert str(report) == text

    def test_failure_listing(self, rng):
        report = check_program(
            bell_program(with_bug=True),
            RunConfig(ensemble_size=32),
            rng=rng,
        )
        assert len(report.failures()) == 1
        assert "VIOLATED" in report.summary()
        rows = report.rows()
        assert rows[0]["passed"] is False

    def test_empty_report(self):
        report = DebugReport(program_name="empty")
        assert report.passed
        assert report.first_failure() is None
        assert "(no rows)" in report.summary()

    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 23, "b": "yz"}]
        rendered = format_table(rows)
        lines = rendered.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
