"""Tests for the VQE path of the chemistry benchmark."""

import math

import numpy as np
import pytest

from repro.chemistry import (
    H2VQESolver,
    build_h2_qubit_hamiltonian,
    build_uccd_ansatz_program,
    uccd_generator,
)
from repro.chemistry.h2 import ELECTRON_ASSIGNMENTS, assignment_to_basis_state


class TestUccdAnsatz:
    def test_generator_is_hermitian_with_real_coefficients(self):
        generator = uccd_generator()
        assert generator.is_hermitian()
        assert len(generator) == 8
        for term in generator:
            assert abs(term.coefficient.imag) < 1e-12

    def test_zero_angle_prepares_hartree_fock(self):
        state = build_uccd_ansatz_program(0.0).simulate()
        hf = assignment_to_basis_state(ELECTRON_ASSIGNMENTS["G"])
        assert state.probability_of_outcome([0, 1, 2, 3], hf) == pytest.approx(1.0)

    def test_nonzero_angle_mixes_in_double_excitation(self):
        state = build_uccd_ansatz_program(0.3).simulate()
        hf = assignment_to_basis_state(ELECTRON_ASSIGNMENTS["G"])
        excited = assignment_to_basis_state(ELECTRON_ASSIGNMENTS["E3"])
        p_hf = state.probability_of_outcome([0, 1, 2, 3], hf)
        p_excited = state.probability_of_outcome([0, 1, 2, 3], excited)
        assert p_hf + p_excited == pytest.approx(1.0, abs=1e-9)
        assert 0.0 < p_excited < 1.0

    def test_ansatz_preserves_particle_number(self):
        state = build_uccd_ansatz_program(0.7).simulate()
        for basis, amplitude in state.to_dict().items():
            assert bin(basis).count("1") == 2


class TestVQESolver:
    @pytest.fixture(scope="class")
    def solver(self):
        return H2VQESolver()

    def test_energy_at_zero_is_hartree_fock(self, solver, h2_hamiltonian):
        hf_energy = np.real(
            h2_hamiltonian.to_matrix()[
                assignment_to_basis_state(ELECTRON_ASSIGNMENTS["G"]),
                assignment_to_basis_state(ELECTRON_ASSIGNMENTS["G"]),
            ]
        )
        assert solver.energy(0.0) == pytest.approx(hf_energy, abs=1e-9)

    def test_minimisation_reaches_fci_energy(self, solver):
        result = solver.minimize(tolerance=1e-5)
        assert result.converged
        assert result.energy == pytest.approx(solver.exact_ground_energy(), abs=1e-5)
        assert result.energy < solver.energy(0.0)  # below Hartree-Fock
        assert result.evaluations == len(result.history)

    def test_variational_property(self, solver):
        """No ansatz angle can dip below the exact ground-state energy."""
        ground = solver.exact_ground_energy()
        for theta in np.linspace(-math.pi / 2, math.pi / 2, 9):
            assert solver.energy(float(theta)) >= ground - 1e-9

    def test_energy_landscape_shape(self, solver):
        landscape = solver.energy_landscape(np.linspace(-0.5, 0.5, 5))
        assert len(landscape) == 5
        energies = [energy for _, energy in landscape]
        assert min(energies) <= energies[2]  # the minimum is away from theta = 0

    def test_sampled_energy_close_to_exact(self):
        sampled_solver = H2VQESolver(shots=512, rng=7)
        exact_solver = H2VQESolver()
        theta = 0.11
        assert sampled_solver.energy(theta) == pytest.approx(
            exact_solver.energy(theta), abs=0.1
        )

    def test_sampled_energy_never_simulates_the_exact_state(self, monkeypatch):
        """Sampled energies come from the measurement circuits alone."""

        def forbidden(theta):
            raise AssertionError("the sampled path simulated the exact ansatz")

        sampled_solver = H2VQESolver(shots=256, rng=11)
        monkeypatch.setattr(sampled_solver, "prepare_state", forbidden)
        # Seeded values pinned before the exact simulation was dropped.
        assert sampled_solver.energy(0.4) == -1.0129016724995532
        assert sampled_solver.energy(-0.2) == -0.9871596217183034

    def test_minimize_with_custom_energy_function(self, solver):
        result = solver.minimize(energy_function=lambda theta: (theta - 0.2) ** 2)
        assert result.theta == pytest.approx(0.2, abs=1e-3)

    def test_vqe_and_ipe_agree(self, solver):
        """Cross-validation between the two estimation algorithms (Section 5.2.1)."""
        from repro.chemistry import ELECTRON_ASSIGNMENTS as ASSIGNMENTS
        from repro.chemistry import H2EnergyEstimator

        vqe_energy = solver.minimize(tolerance=1e-4).energy
        ipe_energy = H2EnergyEstimator(num_bits=6, trotter_steps_per_unit=2).estimate_ipe(
            ASSIGNMENTS["G"]
        ).energy
        assert vqe_energy == pytest.approx(ipe_energy, abs=0.1)

    def test_result_row(self, solver):
        result = solver.minimize(tolerance=1e-3)
        row = result.as_row()
        assert set(row) == {"theta", "energy", "evaluations", "converged"}
