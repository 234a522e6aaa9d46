"""Tests for OpenQASM 2.0 export and re-import."""

import math
import time

import numpy as np
import pytest

from repro.algorithms.qft import append_qft
from repro.lang import Program, QasmError, from_qasm, to_qasm
from repro.lang.qasm import _format_angle, _parse_angle


class TestExport:
    def test_header_and_register_declarations(self):
        program = Program()
        program.qreg("q", 3)
        text = to_qasm(program)
        assert text.startswith("OPENQASM 2.0;")
        assert 'include "qelib1.inc";' in text
        assert "qreg q[3];" in text

    def test_standard_gates(self):
        program = Program()
        q = program.qreg("q", 3)
        program.h(q[0]).cnot(q[0], q[1]).toffoli(q[0], q[1], q[2])
        program.rz(q[0], math.pi / 2).cphase(q[0], q[1], math.pi / 4)
        text = to_qasm(program)
        assert "h q[0];" in text
        assert "cx q[0],q[1];" in text
        assert "ccx q[0],q[1],q[2];" in text
        assert "rz(pi/2) q[0];" in text
        assert "cu1(pi/4) q[0],q[1];" in text

    def test_prep_exports_as_reset(self):
        program = Program()
        q = program.qreg("q", 1)
        program.prep_z(q[0], 1)
        text = to_qasm(program)
        assert "reset q[0];" in text
        assert "x q[0];" in text

    def test_measure_declares_creg(self):
        program = Program()
        q = program.qreg("q", 2)
        program.measure(q, label="m")
        text = to_qasm(program)
        assert "creg c0[2];" in text
        assert "measure q[0] -> c0[0];" in text

    def test_assertions_become_comments(self):
        program = Program()
        q = program.qreg("q", 2)
        program.assert_classical(q, 2)
        text = to_qasm(program)
        assert "// assert_classical" in text
        bare = to_qasm(program, include_assertions_as_comments=False)
        assert "assert_classical" not in bare

    def test_double_controlled_phase_is_decomposed(self):
        program = Program()
        q = program.qreg("q", 3)
        program.ccphase(q[0], q[1], q[2], math.pi / 2)
        text = to_qasm(program)
        assert text.count("cu1") == 3
        assert text.count("cx") == 2

    def test_unsupported_gate_raises(self):
        program = Program()
        q = program.qreg("q", 4)
        program.mcz([q[0], q[1], q[2]], q[3])
        with pytest.raises(QasmError):
            to_qasm(program)

    def test_format_angle(self):
        assert _format_angle(math.pi) == "pi"
        assert _format_angle(math.pi / 8) == "pi/8"
        assert _format_angle(-math.pi / 2) == "-1*pi/2"
        assert _format_angle(0.0) == "0"
        assert "0.123" in _format_angle(0.123)


class TestCliffordRoundTrip:
    """The full Clifford generator set must survive export + re-import."""

    @staticmethod
    def _clifford_program():
        from repro.lang import Program

        program = Program("clifford_generators")
        q = program.qreg("q", 3)
        program.h(q[0]).s(q[1]).sdg(q[2])
        program.x(q[0]).y(q[1]).z(q[2])
        program.cnot(q[0], q[1]).cz(q[1], q[2]).swap(q[0], q[2])
        return program

    def test_generator_spellings(self):
        from repro.lang import to_qasm

        text = to_qasm(self._clifford_program())
        for line in (
            "h q[0];",
            "s q[1];",
            "sdg q[2];",
            "x q[0];",
            "y q[1];",
            "z q[2];",
            "cx q[0],q[1];",
            "cz q[1],q[2];",
            "swap q[0],q[2];",
        ):
            assert line in text

    def test_round_trip_is_lossless(self):
        from repro.lang import from_qasm, to_qasm

        program = self._clifford_program()
        restored = from_qasm(to_qasm(program))
        assert np.allclose(restored.unitary(), program.unitary(), atol=1e-10)
        # The re-imported circuit is still Clifford end to end...
        from repro.lang import is_clifford_instruction

        assert all(is_clifford_instruction(i) for i in restored.instructions)
        # ...and still runs on the stabilizer tableau, distribution intact.
        assert np.allclose(
            restored.simulate(backend="stabilizer").probabilities(),
            program.simulate(backend="statevector").probabilities(),
            atol=1e-10,
        )


class TestImport:
    def test_round_trip_preserves_semantics(self):
        program = Program()
        q = program.qreg("q", 3)
        append_qft(program, q, swaps=True)
        text = to_qasm(program)
        restored = from_qasm(text)
        assert np.allclose(restored.unitary(), program.unitary(), atol=1e-10)

    def test_round_trip_bell(self):
        program = Program()
        q = program.qreg("q", 2)
        program.h(q[0]).cnot(q[0], q[1])
        restored = from_qasm(to_qasm(program))
        assert np.allclose(restored.unitary(), program.unitary())

    def test_import_measure_and_reset(self):
        text = """
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[2];
        creg c[2];
        reset q[0];
        h q[0];
        measure q[0] -> c[0];
        """
        program = from_qasm(text)
        assert program.num_qubits == 2
        assert len(program.instructions) == 3

    def test_import_rejects_unknown_gate(self):
        text = "OPENQASM 2.0;\nqreg q[1];\nmystery q[0];\n"
        with pytest.raises(QasmError):
            from_qasm(text)

    def test_import_rejects_unknown_register(self):
        text = "OPENQASM 2.0;\nqreg q[1];\nh r[0];\n"
        with pytest.raises(QasmError):
            from_qasm(text)

    def test_import_parses_pi_expressions(self):
        text = "OPENQASM 2.0;\nqreg q[1];\nrz(3*pi/4) q[0];\nu1(-pi/2) q[0];\n"
        program = from_qasm(text)
        params = [i.params[0] for i in program.gate_instructions()]
        assert params[0] == pytest.approx(3 * math.pi / 4)
        assert params[1] == pytest.approx(-math.pi / 2)

    def test_import_rejects_malformed_angle(self):
        text = "OPENQASM 2.0;\nqreg q[1];\nrz(import os) q[0];\n"
        with pytest.raises(QasmError):
            from_qasm(text)


#: ``rz(9**9**8)`` once made the importer compute a power with hundreds of
#: millions of digits; every one of these must fail fast and cleanly.
HOSTILE_ANGLES = [
    "9**9**8", "2**3", "pi*", "(pi", "pi)", "1/0", "e", "pi2", "2pi", "1e",
    "__import__", "-", "()", "pi pi", "9" * 80,
]


class TestAngleParser:
    @pytest.mark.parametrize("angle", HOSTILE_ANGLES)
    def test_hostile_angle_raises_quickly(self, angle):
        text = f"OPENQASM 2.0;\nqreg q[1];\nrz({angle}) q[0];\n"
        start = time.perf_counter()
        with pytest.raises(QasmError):
            from_qasm(text)
        assert time.perf_counter() - start < 1.0

    def test_power_payload_rejected_at_service_submit(self):
        from repro.service import LocalService

        payload = {"program": "OPENQASM 2.0;\nqreg q[1];\nrz(9**9**8) q[0];\n"}
        with LocalService(max_workers=1, root_seed=0) as service:
            start = time.perf_counter()
            with pytest.raises(QasmError):
                service.submit_payload(payload)
            assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "angle,value",
        [
            ("1+2*3-4/5", 1 + 2 * 3 - 4 / 5),
            ("(1+2)*3", 9.0),
            ("-pi/2", -math.pi / 2),
            ("2*-pi", -2 * math.pi),
            ("--pi", math.pi),
            ("-(-(pi))/2", math.pi / 2),
            ("1/3*pi", 1 / 3 * math.pi),
            ("1.e3", 1000.0),
            (".5", 0.5),
            ("-1.25e-05", -1.25e-05),
        ],
    )
    def test_precedence_and_associativity_follow_python(self, angle, value):
        assert _parse_angle(angle) == value

    def test_signed_zeros_follow_python_number_semantics(self):
        assert math.copysign(1.0, _parse_angle("-0")) == 1.0  # int zero
        assert math.copysign(1.0, _parse_angle("-0.0")) == -1.0

    def test_exported_angles_read_back_exactly(self):
        rng = np.random.default_rng(7)
        values = [k * math.pi / d for k in range(-40, 41) for d in (1, 2, 8, 256)]
        values += (rng.uniform(-10, 10, 200) * 10.0 ** rng.integers(-20, 3, 200)).tolist()
        for value in values:
            assert _parse_angle(_format_angle(value)) == value
