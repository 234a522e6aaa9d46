"""Tests for breakpoint splitting and ensemble execution."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from bench_helpers import run_breakpoint_version  # noqa: E402

from repro import RunConfig
from repro.compiler import BreakpointExecutor, split_at_assertions
from repro.lang import Program
from repro.sim import ReadoutErrorModel


def program_with_three_breakpoints():
    program = Program("three_bp")
    a = program.qreg("a", 2)
    b = program.qreg("b", 1)
    program.prepare_int(a, 2)
    program.assert_classical(a, 2, label="prep check")
    program.h(a[0])
    program.h(a[1])
    program.assert_superposition(a, label="superposition check")
    program.cnot(a[0], b[0])
    program.assert_entangled([a[0]], b, label="entangled check")
    program.measure(a)
    return program, a, b


class TestSplitter:
    def test_one_breakpoint_per_assertion(self):
        program, *_ = program_with_three_breakpoints()
        breakpoints = split_at_assertions(program)
        assert len(breakpoints) == 3
        assert [bp.index for bp in breakpoints] == [0, 1, 2]
        assert [bp.name for bp in breakpoints] == [
            "prep check",
            "superposition check",
            "entangled check",
        ]

    def test_prefixes_are_cumulative(self):
        program, *_ = program_with_three_breakpoints()
        breakpoints = split_at_assertions(program)
        assert [bp.gates_before for bp in breakpoints] == [0, 2, 3]
        # Earlier assertions are never replayed inside later prefixes.
        assert all(len(bp.program.assertions()) == 0 for bp in breakpoints)

    def test_terminal_measurement_excluded_from_prefixes(self):
        program, *_ = program_with_three_breakpoints()
        breakpoints = split_at_assertions(program)
        from repro.lang.instructions import MeasureInstruction

        for bp in breakpoints:
            assert not any(
                isinstance(i, MeasureInstruction) for i in bp.program.instructions
            )

    def test_no_assertions_gives_no_breakpoints(self):
        program = Program()
        q = program.qreg("q", 1)
        program.h(q[0])
        assert split_at_assertions(program) == []

    def test_breakpoint_programs_share_registers(self):
        program, a, b = program_with_three_breakpoints()
        breakpoints = split_at_assertions(program)
        for bp in breakpoints:
            assert bp.program.qubit_index(a[0]) == program.qubit_index(a[0])
            assert bp.program.qubit_index(b[0]) == program.qubit_index(b[0])

    def test_describe(self):
        program, *_ = program_with_three_breakpoints()
        text = split_at_assertions(program)[1].describe()
        assert "breakpoint 1" in text and "2 gates" in text


class TestExecutor:
    def test_classical_breakpoint_samples(self, rng):
        program, *_ = program_with_three_breakpoints()
        breakpoints = split_at_assertions(program)
        executor = BreakpointExecutor(RunConfig(ensemble_size=12), rng=rng)
        measurements = run_breakpoint_version(executor, breakpoints[0])
        assert measurements.joint.num_samples == 12
        assert set(measurements.group_a.samples) == {2}
        assert measurements.group_b is None

    def test_entangled_breakpoint_groups(self, rng):
        program, a, b = program_with_three_breakpoints()
        breakpoints = split_at_assertions(program)
        executor = BreakpointExecutor(RunConfig(ensemble_size=24), rng=rng)
        measurements = run_breakpoint_version(executor, breakpoints[2])
        assert measurements.group_a.num_bits == 1
        assert measurements.group_b.num_bits == 1
        # a[0] and b[0] are perfectly correlated after the CNOT.
        assert measurements.group_a.samples == measurements.group_b.samples

    def test_rerun_mode_matches_statistics(self):
        program, *_ = program_with_three_breakpoints()
        breakpoints = split_at_assertions(program)
        executor = BreakpointExecutor(RunConfig(ensemble_size=40, seed=3, mode="rerun"))
        measurements = run_breakpoint_version(executor, breakpoints[1])
        counts = measurements.group_a.counts()
        assert sum(counts.values()) == 40
        assert set(counts) <= {0, 1, 2, 3}

    def test_readout_error_is_applied(self):
        program, *_ = program_with_three_breakpoints()
        breakpoints = split_at_assertions(program)
        executor = BreakpointExecutor(
            RunConfig(
                ensemble_size=16,
                seed=0,
                readout_error=ReadoutErrorModel(p01=1.0, p10=1.0),
            ),
        )
        measurements = run_breakpoint_version(executor, breakpoints[0])
        # Every bit flips, so the prepared value 2 reads as 1 (two-bit register).
        assert set(measurements.group_a.samples) == {1}

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BreakpointExecutor(RunConfig(ensemble_size=0))
        with pytest.raises(ValueError):
            BreakpointExecutor(RunConfig(mode="imaginary"))
