"""Tests for compute/uncompute, control blocks and assertion auto-placement."""

import numpy as np
import pytest

from repro.core import RunConfig, check_program
from repro.lang import (
    Program,
    auto_place_assertions,
    compute,
    control,
    uncompute,
)
from repro.lang.instructions import (
    BlockMarkerInstruction,
    EntangledAssertInstruction,
    GateInstruction,
    ProductAssertInstruction,
)
from repro.lang.patterns import PatternScanner


class TestComputeUncompute:
    def test_uncompute_reverses_and_inverts(self):
        program = Program()
        q = program.qreg("q", 2)
        with compute(program, involved=[q[1]]):
            program.h(q[1])
            program.rz(q[1], 0.7)
        uncompute(program)
        gate_names = [i.name for i in program.gate_instructions()]
        assert gate_names == ["h", "rz", "rz", "h"]
        params = [i.params for i in program.gate_instructions()]
        assert params[1] == (0.7,)
        assert params[2] == (-0.7,)
        assert np.allclose(program.unitary(), np.eye(4), atol=1e-10)

    def test_uncompute_without_compute_fails(self):
        program = Program()
        program.qreg("q", 1)
        with pytest.raises(ValueError):
            uncompute(program)

    def test_nested_compute_blocks_uncompute_in_lifo_order(self):
        program = Program()
        q = program.qreg("q", 2)
        with compute(program):
            program.x(q[0])
            with compute(program):
                program.h(q[1])
            uncompute(program)  # uncompute inner
        uncompute(program)  # uncompute outer
        assert np.allclose(program.unitary(), np.eye(4), atol=1e-10)

    def test_explicit_record_argument(self):
        program = Program()
        q = program.qreg("q", 1)
        with compute(program) as record:
            program.h(q[0])
        uncompute(program, record)
        assert np.allclose(program.unitary(), np.eye(2), atol=1e-10)

    def test_block_markers_emitted(self):
        program = Program()
        q = program.qreg("q", 1)
        with compute(program):
            program.x(q[0])
        uncompute(program)
        kinds = [
            (i.kind, i.boundary)
            for i in program.instructions
            if isinstance(i, BlockMarkerInstruction)
        ]
        assert kinds == [
            ("compute", "begin"),
            ("compute", "end"),
            ("uncompute", "begin"),
            ("uncompute", "end"),
        ]


class TestControlBlock:
    def test_control_block_adds_controls(self):
        program = Program()
        c = program.qreg("c", 1)
        t = program.qreg("t", 2)
        with control(program, c):
            program.x(t[0])
            program.h(t[1])
        for instruction in program.gate_instructions():
            assert c[0] in instruction.controls

    def test_control_block_equivalent_to_controlled_gates(self):
        direct = Program("direct")
        c1 = direct.qreg("c", 1)
        t1 = direct.qreg("t", 1)
        direct.cnot(c1[0], t1[0])

        patterned = Program("pattern")
        c2 = patterned.qreg("c", 1)
        t2 = patterned.qreg("t", 1)
        with control(patterned, c2):
            patterned.x(t2[0])

        assert np.allclose(direct.unitary(), patterned.unitary())

    def test_control_block_rejects_non_gates(self):
        program = Program()
        c = program.qreg("c", 1)
        t = program.qreg("t", 1)
        with pytest.raises(ValueError):
            with control(program, c):
                program.prep_z(t[0], 0)


class TestAutoPlacement:
    def _controlled_adder_like_program(self):
        """A program with a control block and a compute/uncompute pair."""
        program = Program("auto")
        c = program.qreg("c", 1)
        data = program.qreg("d", 2)
        scratch = program.qreg("s", 1)
        program.h(c[0])
        with compute(program, involved=[scratch[0]]):
            program.cnot(data[0], scratch[0])
        # The control block only touches data[1], so the later uncompute of the
        # scratch qubit (which depends on data[0]) remains valid.
        with control(program, c):
            program.x(data[1])
        uncompute(program)
        return program, c, data, scratch

    def test_scanner_finds_both_patterns(self):
        program, c, data, scratch = self._controlled_adder_like_program()
        suggestions = PatternScanner(program).suggest()
        kinds = sorted(s.kind for s in suggestions)
        assert kinds == ["entangled", "product"]
        entangled = next(s for s in suggestions if s.kind == "entangled")
        assert set(entangled.group_a) == {c[0]}
        assert set(entangled.group_b) == {data[1]}

    def test_auto_place_inserts_assertions(self):
        program, *_ = self._controlled_adder_like_program()
        before = len(program.assertions())
        suggestions = auto_place_assertions(program)
        assert len(program.assertions()) == before + len(suggestions)
        types = {type(a) for a in program.assertions()}
        assert EntangledAssertInstruction in types
        assert ProductAssertInstruction in types

    def test_auto_placed_assertions_pass_on_correct_program(self, rng):
        program, *_ = self._controlled_adder_like_program()
        auto_place_assertions(program)
        report = check_program(program, RunConfig(ensemble_size=32), rng=rng)
        assert report.passed, report.summary()

    def test_scanner_on_program_without_blocks(self):
        program = Program()
        q = program.qreg("q", 2)
        program.h(q[0]).cnot(q[0], q[1])
        assert PatternScanner(program).suggest() == []
