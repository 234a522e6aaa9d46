"""Importance-sampled trajectory noise and correlated two-qubit channels.

Covers the rare-event sampling layer end to end: the biased
``PauliChannelSampler`` (likelihood ratios, unbiased-path byte identity),
likelihood-ratio weights flowing through the trajectory backends into
``MeasurementEnsemble`` (weighted frequencies, Kish effective sample size,
SE denominators), the self-normalized estimator staying unbiased at rare
``p``, and the ``two_qubit_depolarizing`` channel agreeing between the
sampled trajectory path and the exact density path.
"""

import numpy as np
import pytest

from repro import RunConfig
from repro.compiler import BreakpointExecutor, build_execution_plan
from repro.core.statistics import category_standard_errors
from repro.lang import Program
from repro.sim.measurement import MeasurementEnsemble
from repro.sim.noise import (
    NoiseModel,
    PauliChannelSampler,
    bit_flip,
    depolarizing,
    two_qubit_depolarizing,
)

SEED = 20190622


# ----------------------------------------------------------------------
# Sampler-level properties
# ----------------------------------------------------------------------


class TestBiasedSampler:
    def test_unbiased_sampler_has_no_ratios(self):
        sampler = PauliChannelSampler(depolarizing(0.01).pauli_decomposition())
        assert not sampler.is_biased
        assert sampler.ratios is None

    def test_biased_sampler_ratios_are_likelihood_ratios(self):
        p = 1e-4
        boost = 0.05
        mixture = depolarizing(p).pauli_decomposition()
        sampler = PauliChannelSampler(mixture, importance_boost=boost)
        assert sampler.is_biased
        probabilities = np.asarray(mixture.probabilities)
        sampling = probabilities * sampler.ratios**-1
        # The biased distribution is normalised and pushes exactly `boost`
        # mass onto the error components.
        assert sampling.sum() == pytest.approx(1.0)
        assert sampling[1:].sum() == pytest.approx(boost)

    def test_boost_ignored_when_error_mass_already_large(self):
        # depolarizing(0.3) has error mass 0.3 > boost 0.05: no reweighting.
        sampler = PauliChannelSampler(
            depolarizing(0.3).pauli_decomposition(), importance_boost=0.05
        )
        assert not sampler.is_biased

    def test_boost_validation(self):
        mixture = depolarizing(0.01).pauli_decomposition()
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="importance_boost"):
                PauliChannelSampler(mixture, importance_boost=bad)

    def test_biased_draws_match_biased_distribution(self):
        p = 1e-3
        boost = 0.25
        sampler = PauliChannelSampler(
            depolarizing(p).pauli_decomposition(), importance_boost=boost
        )
        rng = np.random.default_rng(SEED)
        positions = sampler.sample_positions(rng.random(200_000))
        error_fraction = float((positions != 0).mean())
        assert error_fraction == pytest.approx(boost, rel=0.05)

    def test_unbiased_sample_stream_unchanged_by_refactor(self):
        """The unbiased path must keep its historical byte-for-byte stream."""
        mixture = depolarizing(0.2).pauli_decomposition()
        sampler = PauliChannelSampler(mixture)
        uniforms = np.random.default_rng(SEED).random(64)
        expected = np.minimum(
            np.searchsorted(np.cumsum(mixture.probabilities), uniforms, side="right"),
            len(mixture.probabilities) - 1,
        )
        assert list(sampler.sample_positions(uniforms)) == list(expected)

    def test_noise_model_boost_validation(self):
        with pytest.raises(ValueError):
            NoiseModel.from_channels([depolarizing(0.01)], importance_boost=1.0)
        model = NoiseModel.from_channels([depolarizing(0.01)], importance_boost=0.1)
        assert model.importance_boost == 0.1


# ----------------------------------------------------------------------
# Weighted ensembles and statistics
# ----------------------------------------------------------------------


class TestWeightedEnsembles:
    def test_weighted_frequencies_and_kish_size(self):
        ensemble = MeasurementEnsemble(
            samples=[0, 0, 1, 1], num_bits=1, weights=[1.0, 1.0, 0.5, 0.5]
        )
        freqs = ensemble.weighted_frequencies()
        # Weighted counts: outcome 1 carries 0.5 + 0.5 of the 3.0 total, so
        # the self-normalised estimate of P(1) is 1/3.
        assert freqs[1] == pytest.approx(1.0)
        assert freqs[1] / freqs.sum() == pytest.approx(1.0 / 3.0)
        # Kish: (sum w)^2 / sum w^2 = 9 / 2.5 = 3.6
        assert ensemble.effective_sample_size() == pytest.approx(3.6)

    def test_unweighted_ensemble_degrades_to_plain_frequencies(self):
        ensemble = MeasurementEnsemble(samples=[0, 1, 1, 1], num_bits=1)
        assert list(ensemble.weighted_frequencies()) == list(ensemble.frequencies())
        assert ensemble.effective_sample_size() == 4.0

    def test_category_standard_errors_with_effective_size(self):
        counts = np.array([30.0, 10.0])
        plain = category_standard_errors(counts)
        shrunk = category_standard_errors(counts, effective_sample_size=10.0)
        assert np.all(shrunk >= plain)
        with pytest.raises(ValueError):
            category_standard_errors(counts, effective_sample_size=0.0)


# ----------------------------------------------------------------------
# End-to-end: rare-noise estimation through the executor
# ----------------------------------------------------------------------


def _probe_program(gates: int = 30) -> Program:
    program = Program("rare_noise_probe")
    register = program.qreg("q", 1)
    program.prep_z(register[0], 0)
    for _ in range(gates // 2):
        program.x(register[0])
        program.x(register[0])
    program.assert_classical([register[0]], 0, label="still |0>")
    program.measure(register, label="m")
    return program


def _estimate(noise, ensemble_size: int, seed: int, backend: str) -> float:
    plan = build_execution_plan(_probe_program())
    executor = BreakpointExecutor(
        RunConfig(ensemble_size=ensemble_size, seed=seed, backend=backend, noise=noise),
    )
    ensemble = executor.run_plan(plan)[0].joint
    weights = ensemble.weights or [1.0] * len(ensemble.samples)
    return sum(w for w, s in zip(weights, ensemble.samples) if s != 0) / sum(weights)


class TestEndToEnd:
    @pytest.mark.parametrize("backend", ["stabilizer", "statevector"])
    def test_weights_reach_the_ensemble(self, backend):
        noise = NoiseModel.from_channels([depolarizing(1e-4)], importance_boost=0.1)
        plan = build_execution_plan(_probe_program())
        executor = BreakpointExecutor(
            RunConfig(ensemble_size=16, seed=SEED, backend=backend, noise=noise),
        )
        ensemble = executor.run_plan(plan)[0].joint
        assert ensemble.weights is not None
        assert len(ensemble.weights) == 16
        assert ensemble.effective_sample_size() <= 16.0

    def test_plain_noise_keeps_unweighted_ensembles(self):
        noise = NoiseModel.from_channels([depolarizing(1e-4)])
        plan = build_execution_plan(_probe_program())
        executor = BreakpointExecutor(
            RunConfig(ensemble_size=16, seed=SEED, backend="stabilizer", noise=noise),
        )
        assert executor.run_plan(plan)[0].joint.weights is None

    def test_importance_estimator_is_unbiased_and_tighter(self):
        p = 1e-3
        gates = 30
        plain_noise = NoiseModel.from_channels([depolarizing(p)])
        boosted_noise = NoiseModel.from_channels(
            [depolarizing(p)], importance_boost=2.0 / gates
        )
        plain = [
            _estimate(plain_noise, 128, SEED + rep, "stabilizer") for rep in range(20)
        ]
        boosted = [
            _estimate(boosted_noise, 128, SEED + rep, "stabilizer")
            for rep in range(20)
        ]
        # Same target: the two means agree within a few plain-sampling SEs.
        plain_se = np.std(plain, ddof=1) / np.sqrt(len(plain))
        assert abs(np.mean(boosted) - np.mean(plain)) <= 4.0 * plain_se + 1e-3
        # And the boosted estimator is strictly tighter across repetitions.
        assert np.std(boosted, ddof=1) < np.std(plain, ddof=1)


class TestSnapshotRestoresWeights:
    """``restore`` rolls the likelihood-ratio weights back with the state."""

    @staticmethod
    def _backend(name, noise):
        from repro.sim import StabilizerBackend, TrajectoryNoiseBackend

        cls = {"trajectory": TrajectoryNoiseBackend, "stabilizer": StabilizerBackend}
        return cls[name](2, noise=noise, batch_size=4, seed=3)

    @pytest.mark.parametrize("backend", ["trajectory", "stabilizer"])
    def test_restore_rolls_back_weights(self, backend):
        from repro.sim import gates

        noise = NoiseModel(
            gate_channels=(depolarizing(1e-3),), importance_boost=0.2
        )
        engine = self._backend(backend, noise)
        engine.apply_matrix(gates.H, [0])
        at_snapshot = engine.member_weights()
        token = engine.snapshot()
        engine.apply_matrix(gates.H, [1])
        assert not np.array_equal(engine.member_weights(), at_snapshot)
        engine.restore(token)
        # One identity event at ratio (1 - 1e-3) / (1 - 0.2).
        np.testing.assert_allclose(at_snapshot, 1.24875)
        np.testing.assert_array_equal(engine.member_weights(), at_snapshot)

    @pytest.mark.parametrize("backend", ["trajectory", "stabilizer"])
    def test_unweighted_tokens_unchanged(self, backend):
        from repro.sim import gates

        engine = self._backend(backend, NoiseModel.from_channels([depolarizing(1e-3)]))
        engine.apply_matrix(gates.H, [0])
        token = engine.snapshot()
        if backend == "trajectory":
            rows, row_of = token  # member rows and row map, no weights
            assert isinstance(rows, np.ndarray)
            assert isinstance(row_of, np.ndarray)
        else:
            assert len(token) == 5  # tableau columns, phase, frame words


class TestWeightedMixtures:
    """Mixture readouts weight members by their likelihood ratios.

    Ten X gates under ``bit_flip(0.01)`` boosted to 0.05: averaging the
    members uniformly would estimate the boosted flip rate instead of the
    true one.
    """

    RATE = 0.01
    BOOSTED = NoiseModel.from_channels([bit_flip(RATE)], importance_boost=0.05)
    #: P(1) after ten noisy X gates: an odd number of the ten flips.
    TRUTH = 0.5 * (1.0 - (1.0 - 2.0 * RATE) ** 10)

    @pytest.mark.parametrize("backend", ["trajectory", "stabilizer"])
    def test_boosted_probabilities_estimate_the_true_mixture(self, backend):
        from repro.sim import StabilizerBackend, TrajectoryNoiseBackend, gates

        cls = {"trajectory": TrajectoryNoiseBackend, "stabilizer": StabilizerBackend}
        estimates = []
        for rep in range(100):
            engine = cls[backend](1, noise=self.BOOSTED, batch_size=64, seed=SEED + rep)
            for _ in range(10):
                engine.apply_matrix(gates.X, [0])
            estimates.append(engine.probabilities([0])[1])
        se = np.std(estimates, ddof=1) / np.sqrt(len(estimates))
        assert abs(np.mean(estimates) - self.TRUTH) <= 4.0 * se

    def test_sampled_observable_matches_unboosted(self):
        from repro import check_program
        from repro.observables.pauli import PauliString

        program = Program("boosted_observable")
        register = program.qreg("q", 1)
        for _ in range(10):
            program.x(register[0])
        z = PauliString.from_label("Z")
        program.assert_observable(register, z, 1.0 - 2.0 * self.TRUTH, 0.05)

        def estimates(noise):
            return [
                check_program(
                    program,
                    RunConfig(
                        ensemble_size=16, seed=SEED + rep, backend="trajectory",
                        noise=noise,
                    ),
                ).records[0].outcome.details["mean"]
                for rep in range(40)
            ]

        boosted = estimates(self.BOOSTED)
        plain = estimates(NoiseModel.from_channels([bit_flip(self.RATE)]))
        se = np.hypot(
            np.std(boosted, ddof=1), np.std(plain, ddof=1)
        ) / np.sqrt(len(plain))
        assert abs(np.mean(boosted) - np.mean(plain)) <= 4.0 * se


# ----------------------------------------------------------------------
# Correlated two-qubit channels
# ----------------------------------------------------------------------


def _bell_program() -> Program:
    program = Program("bell_2q_noise")
    register = program.qreg("q", 2)
    program.prep_z(register[0], 0)
    program.prep_z(register[1], 0)
    program.h(register[0])
    program.cnot(register[0], register[1])
    program.assert_classical([register[0], register[1]], 0, label="probe")
    program.measure(register, label="m")
    return program


class TestTwoQubitChannels:
    def test_channel_shape_and_mass(self):
        channel = two_qubit_depolarizing(0.15)
        assert channel.num_qubits == 2
        mixture = channel.pauli_decomposition()
        assert len(mixture.probabilities) == 16
        assert sum(mixture.probabilities) == pytest.approx(1.0)
        assert mixture.probabilities[0] == pytest.approx(0.85)

    def test_noise_model_accepts_two_qubit_rejects_wider(self):
        model = NoiseModel.from_channels([two_qubit_depolarizing(0.1)])
        assert model.gate_channels[0].num_qubits == 2

    @pytest.mark.parametrize("backend", ["stabilizer", "statevector"])
    def test_trajectory_matches_density_distribution(self, backend):
        """Sampled 2q-channel marginals converge to the exact density ones."""
        p = 0.3
        noise = NoiseModel.from_channels([two_qubit_depolarizing(p)])
        plan = build_execution_plan(_bell_program())

        exact = BreakpointExecutor(
            RunConfig(ensemble_size=4096, seed=SEED, backend="density", noise=noise),
        )
        exact_dist = exact.run_plan(plan)[0].joint.empirical_distribution()
        # The density engine samples from the *exact* noisy distribution, so
        # its large-ensemble empirical distribution is the reference.
        sampled = BreakpointExecutor(
            RunConfig(ensemble_size=4096, seed=SEED, backend=backend, noise=noise),
        )
        sampled_dist = sampled.run_plan(plan)[0].joint.empirical_distribution()
        np.testing.assert_allclose(sampled_dist, exact_dist, atol=0.03)

    def test_single_qubit_streams_unchanged_by_two_qubit_support(self):
        """1q-only noise draws are byte-identical with 2q support present."""
        noise = NoiseModel.from_channels([depolarizing(0.05)])
        plan = build_execution_plan(_bell_program())
        first = BreakpointExecutor(
            RunConfig(ensemble_size=64, seed=SEED, backend="stabilizer", noise=noise),
        ).run_plan(plan)
        second = BreakpointExecutor(
            RunConfig(ensemble_size=64, seed=SEED, backend="stabilizer", noise=noise),
        ).run_plan(plan)
        for a, b in zip(first, second):
            assert list(a.joint.samples) == list(b.joint.samples)
