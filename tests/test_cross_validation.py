"""Cross-validation across tool-chain layers.

The paper cross-validated its programs against other quantum frameworks; the
equivalent here is checking that independently implemented layers of this
repository agree with each other on the real benchmark subroutines:

* OpenQASM export -> import round trips preserve program semantics;
* the lowering passes preserve the behaviour of the arithmetic subroutines and
  the assertions still pass after lowering;
* the text drawer renders every benchmark program without losing instructions;
* breakpoint programs emitted by the splitter can be serialised like the
  paper's per-breakpoint OpenQASM outputs.
"""

import numpy as np
import pytest

from repro.algorithms.arithmetic import build_cadd_test_harness
from repro.algorithms.bell import build_bell_program
from repro.algorithms.grover import build_grover_program
from repro.algorithms.oracles import build_bernstein_vazirani_program
from repro.algorithms.qft import build_qft_program, build_qft_test_harness
from repro.compiler import lower_to_basis, split_at_assertions
from repro.core import RunConfig, check_program
from repro.lang import draw, from_qasm, to_qasm
from repro.lang.instructions import GateInstruction


class TestQasmRoundTrips:
    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_qft_round_trip(self, width):
        program = build_qft_program(width, swaps=True)
        restored = from_qasm(to_qasm(program))
        assert np.allclose(restored.unitary(), program.unitary(), atol=1e-9)

    def test_adder_round_trip_after_lowering(self):
        program = lower_to_basis(build_cadd_test_harness().without_assertions())
        # Strip preparations/measurements: compare only the unitary content.
        gates_only = [i for i in program.instructions if isinstance(i, GateInstruction)]
        unitary_program = type(program)("gates_only")
        for register in program.registers:
            unitary_program.add_register(register)
        for instruction in gates_only:
            unitary_program.append(instruction)
        restored = from_qasm(to_qasm(unitary_program))
        assert np.allclose(restored.unitary(), unitary_program.unitary(), atol=1e-8)

    def test_breakpoint_programs_serialise(self):
        program = build_qft_test_harness()
        for breakpoint_program in split_at_assertions(program):
            text = to_qasm(breakpoint_program.program)
            assert text.startswith("OPENQASM 2.0;")
            assert "qreg reg[4];" in text

    def test_bell_program_with_assertions_serialises_with_comments(self):
        text = to_qasm(build_bell_program())
        assert "// assert_entangled" in text
        assert "measure" in text


class TestLoweringPreservesBehaviour:
    def test_lowered_adder_assertions_still_pass(self):
        lowered = lower_to_basis(build_cadd_test_harness())
        report = check_program(lowered, RunConfig(ensemble_size=8, seed=1))
        assert report.passed

    def test_lowered_bv_still_recovers_hidden_string(self):
        program, query = build_bernstein_vazirani_program(0b101, 3, with_assertions=False)
        lowered = lower_to_basis(program)
        state = lowered.simulate()
        indices = [lowered.qubit_index(q) for q in query]
        assert state.probability_of_outcome(indices, 0b101) == pytest.approx(1.0)

    def test_lowered_grover_distribution_unchanged(self):
        circuit = build_grover_program(degree=3, target=5, style="projectq", with_assertions=False)
        original = circuit.program.without_assertions()
        lowered = lower_to_basis(original)
        indices_original = [original.qubit_index(q) for q in circuit.search_register]
        indices_lowered = [lowered.qubit_index(q) for q in circuit.search_register]
        dist_original = original.simulate().probabilities(indices_original)
        dist_lowered = lowered.simulate().probabilities(indices_lowered)
        assert np.allclose(dist_original, dist_lowered, atol=1e-9)

    def test_lowering_increases_only_gate_count_not_behaviour(self):
        program = build_cadd_test_harness().without_assertions()
        lowered = lower_to_basis(program)
        assert lowered.num_gates() >= program.num_gates()


class TestDrawerOnBenchmarks:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: build_bell_program(),
            lambda: build_qft_test_harness(width=3, value=5),
            lambda: build_cadd_test_harness(),
        ],
        ids=["bell", "qft_harness", "adder_harness"],
    )
    def test_every_row_rendered_and_aligned(self, builder):
        program = builder()
        text = draw(program)
        lines = text.splitlines()
        assert len(lines) == program.num_qubits
        assert len({len(line) for line in lines}) == 1

    def test_drawing_grover_does_not_crash_and_wraps(self):
        circuit = build_grover_program(degree=3, target=5, style="scaffold")
        text = draw(circuit.program, max_width=120)
        assert all(len(line) <= 120 for line in text.splitlines())
