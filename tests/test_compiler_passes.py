"""Tests for the lowering passes, validation and resource reports."""

import math

import numpy as np
import pytest

from repro import RunConfig
from repro.compiler import (
    decompose_controlled_rotations,
    decompose_multi_controls,
    decompose_toffoli,
    resource_report,
    validate_program,
)
from repro.lang import Program
from repro.sim import gates


class TestToffoliDecomposition:
    def test_unitary_preserved(self):
        program = Program()
        q = program.qreg("q", 3)
        program.toffoli(q[0], q[1], q[2])
        lowered = decompose_toffoli(program)
        assert np.allclose(lowered.unitary(), program.unitary(), atol=1e-10)

    def test_only_single_and_two_qubit_gates_remain(self):
        program = Program()
        q = program.qreg("q", 3)
        program.toffoli(q[0], q[1], q[2])
        program.h(q[0])
        lowered = decompose_toffoli(program)
        assert all(len(i.controls) <= 1 for i in lowered.gate_instructions())

    def test_non_toffoli_gates_untouched(self):
        program = Program()
        q = program.qreg("q", 2)
        program.cnot(q[0], q[1])
        lowered = decompose_toffoli(program)
        assert lowered.num_gates() == 1


class TestControlledRotationDecomposition:
    @pytest.mark.parametrize("drop", ["A", "C"])
    @pytest.mark.parametrize("angle", [math.pi / 2, 0.3, -1.1])
    def test_crz_variants_preserve_unitary(self, drop, angle):
        program = Program()
        q = program.qreg("q", 2)
        program.crz(q[0], q[1], angle)
        lowered = decompose_controlled_rotations(program, drop=drop)
        assert np.allclose(lowered.unitary(), program.unitary(), atol=1e-10)
        assert all(not i.controls or i.name == "x" for i in lowered.gate_instructions())

    @pytest.mark.parametrize("angle", [math.pi / 4, 1.9])
    def test_cphase_decomposition_preserves_unitary(self, angle):
        program = Program()
        q = program.qreg("q", 2)
        program.cphase(q[0], q[1], angle)
        lowered = decompose_controlled_rotations(program)
        assert np.allclose(lowered.unitary(), program.unitary(), atol=1e-10)

    def test_invalid_drop_choice(self):
        with pytest.raises(ValueError):
            decompose_controlled_rotations(Program(), drop="B")

    def test_multi_controlled_rotations_left_alone(self):
        program = Program()
        q = program.qreg("q", 3)
        program.ccphase(q[0], q[1], q[2], 0.5)
        lowered = decompose_controlled_rotations(program)
        assert lowered.num_gates() == 1


class TestMultiControlDecomposition:
    @pytest.mark.parametrize("num_controls", [3, 4])
    def test_action_on_all_ones_controls(self, num_controls):
        program = Program()
        controls = program.qreg("c", num_controls)
        target = program.qreg("t", 1)
        for qubit in controls:
            program.x(qubit)
        program.mcx(list(controls), target[0])
        lowered = decompose_multi_controls(program)
        assert all(len(i.controls) <= 2 for i in lowered.gate_instructions())
        state = lowered.simulate()
        target_index = lowered.qubit_index(target[0])
        assert state.probability_of_outcome([target_index], 1) == pytest.approx(1.0)

    def test_no_action_when_one_control_unset(self):
        program = Program()
        controls = program.qreg("c", 3)
        target = program.qreg("t", 1)
        program.x(controls[0])
        program.x(controls[1])  # third control remains 0
        program.mcx(list(controls), target[0])
        lowered = decompose_multi_controls(program)
        state = lowered.simulate()
        target_index = lowered.qubit_index(target[0])
        assert state.probability_of_outcome([target_index], 0) == pytest.approx(1.0)

    def test_ancillae_restored(self):
        program = Program()
        controls = program.qreg("c", 3)
        target = program.qreg("t", 1)
        for qubit in controls:
            program.x(qubit)
        program.mcx(list(controls), target[0])
        lowered = decompose_multi_controls(program)
        state = lowered.simulate()
        ancilla_register = next(r for r in lowered.registers if r.name == "mcx_ancilla")
        indices = [lowered.qubit_index(q) for q in ancilla_register]
        assert state.probability_of_outcome(indices, 0) == pytest.approx(1.0)

    def test_programs_without_large_gates_untouched(self):
        program = Program()
        q = program.qreg("q", 2)
        program.cnot(q[0], q[1])
        lowered = decompose_multi_controls(program)
        assert lowered.num_qubits == 2

    def test_invalid_max_controls(self):
        with pytest.raises(ValueError):
            decompose_multi_controls(Program(), max_controls=0)


class TestControlledPhaseAndFullLowering:
    @pytest.mark.parametrize("name", ["phase", "rz"])
    @pytest.mark.parametrize("angle", [math.pi / 4, -0.9])
    def test_ccphase_decomposition_preserves_unitary(self, name, angle):
        from repro.compiler import decompose_controlled_phases

        program = Program()
        q = program.qreg("q", 3)
        program.gate(name, [q[2]], controls=[q[0], q[1]], params=(angle,))
        lowered = decompose_controlled_phases(program)
        assert np.allclose(lowered.unitary(), program.unitary(), atol=1e-10)
        assert all(len(i.controls) <= 1 for i in lowered.gate_instructions())

    def test_lower_to_basis_only_basic_gates_remain(self):
        from repro.compiler import lower_to_basis

        program = Program()
        q = program.qreg("q", 3)
        program.ccphase(q[0], q[1], q[2], math.pi / 8)
        program.toffoli(q[0], q[1], q[2])
        program.crz(q[0], q[2], 0.4)
        lowered = lower_to_basis(program)
        for instruction in lowered.gate_instructions():
            assert len(instruction.controls) == 0 or (
                instruction.name == "x" and len(instruction.controls) == 1
            )

    def test_lower_to_basis_preserves_unitary_without_ancillae(self):
        from repro.compiler import lower_to_basis

        program = Program()
        q = program.qreg("q", 3)
        program.ccphase(q[0], q[1], q[2], math.pi / 8)
        program.toffoli(q[2], q[1], q[0])
        lowered = lower_to_basis(program)
        # No gate has more than 2 controls, so no ancilla register was added
        # and the unitaries can be compared directly.
        assert lowered.num_qubits == program.num_qubits
        assert np.allclose(lowered.unitary(), program.unitary(), atol=1e-9)

    def test_lower_to_basis_makes_qasm_export_possible(self):
        from repro.compiler import lower_to_basis
        from repro.lang import to_qasm

        program = Program()
        q = program.qreg("q", 4)
        program.mcz([q[0], q[1], q[2]], q[3])
        lowered = lower_to_basis(program)
        text = to_qasm(lowered)
        assert "OPENQASM 2.0;" in text

    def test_lowered_adder_still_adds(self):
        from repro.algorithms.arithmetic import build_cadd_test_harness
        from repro.compiler import lower_to_basis
        from repro.core import check_program

        program = lower_to_basis(build_cadd_test_harness())
        report = check_program(program, RunConfig(ensemble_size=8, seed=3))
        assert report.passed


class TestValidationAndResources:
    def test_clean_program_has_no_issues(self):
        program = Program()
        q = program.qreg("q", 2)
        program.prep_z(q[0], 0)
        program.h(q[0])
        program.cnot(q[0], q[1])
        program.measure(q)
        assert validate_program(program) == []

    def test_reprep_after_use_is_flagged(self):
        program = Program()
        q = program.qreg("q", 1)
        program.h(q[0])
        program.prep_z(q[0], 0)
        issues = validate_program(program)
        assert any(issue.severity == "warning" for issue in issues)

    def test_mid_circuit_measurement_is_flagged(self):
        program = Program()
        q = program.qreg("q", 1)
        program.measure(q)
        program.h(q[0])
        issues = validate_program(program)
        assert any("mid-circuit" in issue.message for issue in issues)
        assert all(str(issue) for issue in issues)

    def test_resource_report_counts(self):
        program = Program("adder")
        q = program.qreg("q", 3)
        program.prep_z(q[0], 1)
        program.h(q[0]).cnot(q[0], q[1]).toffoli(q[0], q[1], q[2])
        program.assert_classical(q, 1)
        report = resource_report(program)
        assert report.num_qubits == 3
        assert report.num_gates == 3
        assert report.num_assertions == 1
        assert report.num_preparations == 1
        assert report.gate_histogram["ccx"] == 1
        assert report.as_row()["gates"] == 3
