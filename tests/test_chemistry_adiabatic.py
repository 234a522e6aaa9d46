"""Tests for adiabatic ground-state preparation of H2."""

import numpy as np
import pytest

from repro.chemistry import (
    ELECTRON_ASSIGNMENTS,
    build_diagonal_hamiltonian,
    build_occupation_hamiltonian,
    prepare_ground_state_adiabatically,
    schedule_convergence,
)
from repro.chemistry.adiabatic import append_adiabatic_evolution
from repro.chemistry.h2 import assignment_to_basis_state
from repro.observables import PauliString, PauliSum
from repro.lang import Program


class TestInitialHamiltonians:
    def test_occupation_hamiltonian_ground_state(self):
        occupation = ELECTRON_ASSIGNMENTS["G"]
        hamiltonian = build_occupation_hamiltonian(occupation, penalty=2.0)
        diagonal = np.real(np.diag(hamiltonian.to_matrix()))
        ground_index = int(np.argmin(diagonal))
        assert ground_index == assignment_to_basis_state(occupation)
        assert diagonal[ground_index] == pytest.approx(0.0)
        # The gap equals the penalty.
        assert sorted(diagonal)[1] == pytest.approx(2.0)

    def test_occupation_hamiltonian_validation(self):
        with pytest.raises(ValueError):
            build_occupation_hamiltonian((0, 2, 1))

    def test_diagonal_hamiltonian_is_diagonal_and_shares_hf_ground(self, h2_hamiltonian):
        diagonal_part = build_diagonal_hamiltonian(h2_hamiltonian)
        matrix = diagonal_part.to_matrix()
        assert np.allclose(matrix, np.diag(np.diag(matrix)))
        hf = assignment_to_basis_state(ELECTRON_ASSIGNMENTS["G"])
        assert int(np.argmin(np.real(np.diag(matrix)))) == hf

    def test_diagonal_hamiltonian_requires_diagonal_terms(self):
        purely_off_diagonal = PauliSum([PauliString.from_label("XX")])
        with pytest.raises(ValueError):
            build_diagonal_hamiltonian(purely_off_diagonal)


class TestAdiabaticPreparation:
    def test_slow_schedule_reaches_ground_state(self, h2_hamiltonian):
        result = prepare_ground_state_adiabatically(
            h2_hamiltonian, total_time=8.0, num_steps=32
        )
        assert result.ground_state_overlap > 0.99
        assert result.energy_error < 0.02
        assert result.as_row()["steps"] == 32

    def test_longer_schedules_do_not_get_worse(self, h2_hamiltonian):
        results = schedule_convergence(
            total_times=(0.5, 4.0, 12.0), steps_per_unit_time=4, target_hamiltonian=h2_hamiltonian
        )
        overlaps = [r.ground_state_overlap for r in results]
        assert overlaps[-1] >= overlaps[0]
        assert overlaps[-1] > 0.99

    def test_occupation_mode_runs_and_reports(self, h2_hamiltonian):
        result = prepare_ground_state_adiabatically(
            h2_hamiltonian,
            total_time=1.0,
            num_steps=8,
            initial_mode="occupation",
        )
        assert 0.0 <= result.ground_state_overlap <= 1.0

    def test_invalid_mode_and_parameters(self, h2_hamiltonian):
        with pytest.raises(ValueError):
            prepare_ground_state_adiabatically(h2_hamiltonian, initial_mode="linear")
        program = Program()
        q = program.qreg("q", 4)
        with pytest.raises(ValueError):
            append_adiabatic_evolution(
                program,
                build_diagonal_hamiltonian(h2_hamiltonian),
                h2_hamiltonian,
                list(q),
                total_time=0.0,
                num_steps=4,
            )
        with pytest.raises(ValueError):
            append_adiabatic_evolution(
                program,
                build_diagonal_hamiltonian(h2_hamiltonian),
                h2_hamiltonian,
                list(q),
                total_time=1.0,
                num_steps=0,
            )

    def test_preparation_conserves_particle_number(self, h2_hamiltonian):
        program = Program("adiabatic")
        system = program.qreg("q", 4)
        for index, bit in enumerate(ELECTRON_ASSIGNMENTS["G"]):
            if bit:
                program.x(system[index])
        append_adiabatic_evolution(
            program,
            build_diagonal_hamiltonian(h2_hamiltonian),
            h2_hamiltonian,
            list(system),
            total_time=2.0,
            num_steps=8,
        )
        state = program.simulate()
        for basis, amplitude in state.to_dict(threshold=1e-8).items():
            assert bin(basis).count("1") == 2
