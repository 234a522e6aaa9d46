"""Tests for the Program container: gates, composition, inversion, simulation."""

import math

import numpy as np
import pytest

from repro.lang import Program, QuantumRegister
from repro.lang.instructions import GateInstruction
from repro.sim import Statevector, gates
from unitary_oracles import dft_matrix


class TestRegisters:
    def test_qreg_allocates_offsets(self):
        program = Program()
        a = program.qreg("a", 2)
        b = program.qreg("b", 3)
        assert program.num_qubits == 5
        assert program.qubit_index(a[1]) == 1
        assert program.qubit_index(b[0]) == 2

    def test_duplicate_register_name_rejected(self):
        program = Program()
        program.qreg("a", 2)
        with pytest.raises(ValueError):
            program.qreg("a", 1)

    def test_adding_same_register_twice_is_idempotent(self):
        program = Program()
        register = QuantumRegister("a", 2)
        program.add_register(register)
        program.add_register(register)
        assert program.num_qubits == 2

    def test_foreign_register_rejected(self):
        program = Program()
        program.qreg("a", 1)
        foreign = QuantumRegister("b", 1)
        with pytest.raises(KeyError):
            program.x(foreign[0])


class TestGateMethods:
    def test_gate_methods_append_instructions(self):
        program = Program()
        q = program.qreg("q", 3)
        program.h(q[0]).cnot(q[0], q[1]).toffoli(q[0], q[1], q[2])
        program.rz(q[0], 0.4).cphase(q[0], q[1], 0.2).ccphase(q[0], q[1], q[2], 0.1)
        program.swap(q[0], q[1]).cswap(q[0], q[1], q[2])
        assert program.num_gates() == 8
        histogram = program.count_gates()
        assert histogram[("x", 1)] == 1
        assert histogram[("x", 2)] == 1
        assert histogram[("phase", 2)] == 1

    def test_prepare_int_sets_bits(self):
        program = Program()
        q = program.qreg("q", 4)
        program.prepare_int(q, 0b1010)
        state = program.simulate()
        assert state.amplitude(0b1010) == pytest.approx(1.0)

    def test_prepare_int_out_of_range(self):
        program = Program()
        q = program.qreg("q", 2)
        with pytest.raises(ValueError):
            program.prepare_int(q, 4)

    def test_measure_and_barrier_are_recorded(self):
        program = Program()
        q = program.qreg("q", 1)
        program.barrier(comment="start").h(q[0]).measure(q)
        assert len(program) == 3


class TestSimulation:
    def test_bell_state_probabilities(self):
        program = Program()
        q = program.qreg("q", 2)
        program.h(q[0]).cnot(q[0], q[1])
        state = program.simulate()
        assert np.allclose(state.probabilities(), [0.5, 0, 0, 0.5])

    def test_simulation_with_initial_state(self):
        program = Program()
        q = program.qreg("q", 2)
        program.x(q[0])
        initial = Statevector.from_int(2, 2)
        state = program.simulate(initial_state=initial)
        assert state.amplitude(3) == pytest.approx(1.0)

    def test_wrong_initial_state_size(self):
        program = Program()
        program.qreg("q", 2)
        with pytest.raises(ValueError):
            program.simulate(initial_state=Statevector(3))

    def test_prep_on_fresh_qubit(self):
        program = Program()
        q = program.qreg("q", 2)
        program.prep_z(q[0], 1)
        program.prep_z(q[1], 0)
        state = program.simulate()
        assert state.amplitude(1) == pytest.approx(1.0)

    def test_prep_resets_known_basis_state(self):
        program = Program()
        q = program.qreg("q", 1)
        program.x(q[0])
        program.prep_z(q[0], 0)  # reset back to |0>
        state = program.simulate()
        assert state.amplitude(0) == pytest.approx(1.0)

    def test_prep_on_superposed_qubit_uses_measurement_reset(self):
        program = Program()
        q = program.qreg("q", 1)
        program.h(q[0])
        program.prep_z(q[0], 0)
        state = program.simulate(rng=0)
        assert state.probability_of_outcome([0], 0) == pytest.approx(1.0)

    def test_assertions_are_skipped_during_simulation(self):
        program = Program()
        q = program.qreg("q", 1)
        program.h(q[0])
        program.assert_superposition(q)
        state = program.simulate()
        assert np.allclose(state.probabilities(), [0.5, 0.5])

    def test_unitary_of_hadamard_program(self):
        program = Program()
        q = program.qreg("q", 1)
        program.h(q[0])
        assert np.allclose(program.unitary(), gates.H)

    def test_unitary_rejects_preps(self):
        program = Program()
        q = program.qreg("q", 1)
        program.prep_z(q[0], 0)
        with pytest.raises(ValueError):
            program.unitary()


class TestStructuralOperations:
    def _qft_like_program(self):
        program = Program("body")
        q = program.qreg("q", 2)
        program.h(q[1]).cphase(q[0], q[1], math.pi / 2).h(q[0]).swap(q[0], q[1])
        return program, q

    def test_inverse_program_composes_to_identity(self):
        program, _ = self._qft_like_program()
        inverse = program.inverse()
        combined = Program("combined")
        combined.extend(program).extend(inverse)
        assert np.allclose(combined.unitary(), np.eye(4), atol=1e-10)

    def test_inverse_rejects_preps(self):
        program = Program()
        q = program.qreg("q", 1)
        program.prep_z(q[0], 0)
        with pytest.raises(ValueError):
            program.inverse()

    def test_controlled_on_adds_controls_to_every_gate(self):
        program, q = self._qft_like_program()
        control_program = Program("outer")
        control_register = control_program.qreg("c", 1)
        control_program.add_register(q[0].register)
        controlled = program.controlled_on(control_register[0])
        for instruction in controlled.gate_instructions():
            assert control_register[0] in instruction.controls

    def test_controlled_program_acts_trivially_when_control_zero(self):
        program, q = self._qft_like_program()
        host = Program("host")
        control = host.qreg("c", 1)
        host.add_register(q[0].register)
        host.extend(program.controlled_on(control[0]))
        state = host.simulate()
        # control stays |0>, so the whole body must be a no-op.
        assert state.amplitude(0) == pytest.approx(1.0)

    def test_power_repeats_program(self):
        program = Program()
        q = program.qreg("q", 1)
        program.x(q[0])
        assert np.allclose(program.power(2).unitary(), np.eye(2))
        assert np.allclose(program.power(3).unitary(), gates.X)
        with pytest.raises(ValueError):
            program.power(-1)

    def test_without_assertions(self):
        program = Program()
        q = program.qreg("q", 2)
        program.h(q[0])
        program.assert_superposition(q)
        stripped = program.without_assertions()
        assert len(stripped.assertions()) == 0
        assert stripped.num_gates() == 1

    def test_depth_and_counts(self):
        program = Program()
        q = program.qreg("q", 3)
        program.h(q[0]).h(q[1]).cnot(q[0], q[1]).h(q[2])
        assert program.depth() == 2
        assert program.num_gates() == 4

    def test_extend_merges_registers(self):
        sub = Program("sub")
        q = sub.qreg("q", 1)
        sub.x(q[0])
        main = Program("main")
        main.extend(sub)
        assert main.num_qubits == 1
        assert main.num_gates() == 1

    def test_describe_contains_gates_and_registers(self):
        program = Program("demo")
        q = program.qreg("q", 1)
        program.h(q[0])
        listing = program.describe()
        assert "qbit q[1]" in listing
        assert "h" in listing


class TestAssertionsStatements:
    def test_assertion_statements_recorded(self):
        program = Program()
        a = program.qreg("a", 2)
        b = program.qreg("b", 1)
        program.assert_classical(a, 2)
        program.assert_superposition(a, values=[0, 3])
        program.assert_entangled(a, b)
        program.assert_product(a, b)
        assert len(program.assertions()) == 4

    def test_classical_assertion_value_range(self):
        program = Program()
        a = program.qreg("a", 2)
        with pytest.raises(ValueError):
            program.assert_classical(a, 4)

    def test_qft_program_matches_dft_matrix(self):
        from repro.algorithms.qft import append_qft

        program = Program()
        q = program.qreg("q", 3)
        append_qft(program, q, swaps=True)
        assert np.allclose(program.unitary(), dft_matrix(3), atol=1e-10)
