"""RunConfig / Session facade and backend-registry tests.

``RunConfig`` is the only way to configure a run: the retired kwarg
spellings must fail loudly (``TypeError`` / ``ValueError``) rather than be
silently reinterpreted.
"""

import json
import warnings

import numpy as np
import pytest

import repro
from repro import Program, RunConfig, Session, check_program, session
from repro.core import DebugReport, StatisticalAssertionChecker
from repro.core.exceptions import AssertionViolation
from repro.compiler.executor import BreakpointExecutor
from repro.compiler.plan_cache import default_plan_cache
from repro.sim import (
    BackendCapabilities,
    ReadoutErrorModel,
    StatevectorBackend,
    backend_capabilities,
    clifford_backend_name,
    depolarizing,
    amplitude_damping,
    list_backends,
    make_noisy_backend,
    register_backend,
    unregister_backend,
)
from repro.sim.noise import NoiseModel
from repro.workloads import detection_rate, ensemble_size_sweep

SEED = 20190622


def bell_program(with_bug: bool = False) -> Program:
    program = Program("bell_bug" if with_bug else "bell")
    q = program.qreg("q", 2)
    program.prep_z(q[0], 0)
    program.prep_z(q[1], 0)
    program.h(q[0])
    if not with_bug:
        program.cnot(q[0], q[1])
    program.assert_entangled([q[0]], [q[1]], label="entangled")
    program.assert_superposition(q, values=(0, 3), label="uniform 00/11")
    program.measure(q, label="m")
    return program


# ---------------------------------------------------------------------------
# RunConfig: validation and normalisation
# ---------------------------------------------------------------------------


class TestRunConfigValidation:
    def test_defaults(self):
        config = RunConfig()
        assert config.ensemble_size == 16
        assert config.mode == "sample"
        assert config.backend is None and config.noise is None
        assert not config.converge

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ensemble_size": 0},
            {"ensemble_size": -4},
            {"mode": "teleport"},
            {"significance": 0.0},
            {"significance": 1.0},
            {"se_cutoff": 0.0},
            {"se_cutoff": 1.5},
            {"max_batches": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_seed_spellings_normalised(self):
        assert RunConfig(seed=np.int64(7)).seed == 7
        assert isinstance(RunConfig(seed=np.int64(7)).seed, int)
        assert RunConfig(seed=np.random.SeedSequence(99)).seed == 99
        assert RunConfig(seed=None).seed is None

    def test_live_generator_rejected_as_seed(self):
        with pytest.raises(TypeError, match="state, not configuration"):
            RunConfig(seed=np.random.default_rng(0))
        with pytest.raises(TypeError):
            RunConfig(seed=True)

    def test_noise_channel_wrapped_into_model(self):
        config = RunConfig(noise=depolarizing(0.01))
        assert isinstance(config.noise, NoiseModel)
        assert len(config.noise.gate_channels) == 1

    def test_readout_float_normalised(self):
        config = RunConfig(readout_error=0.05)
        assert isinstance(config.readout_error, ReadoutErrorModel)
        assert config.readout_error.p01 == 0.05 and config.readout_error.p10 == 0.05

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RunConfig().ensemble_size = 4

    def test_replace_revalidates(self):
        config = RunConfig(ensemble_size=8)
        assert config.replace(ensemble_size=32).ensemble_size == 32
        assert config.ensemble_size == 8  # original untouched
        with pytest.raises(ValueError):
            config.replace(mode="nope")

    def test_bad_backend_type_rejected(self):
        with pytest.raises(TypeError, match="backend"):
            RunConfig(backend=42)


class TestRunConfigSerialization:
    def test_plain_round_trip(self):
        config = RunConfig(ensemble_size=24, seed=5, mode="rerun", backend="density")
        restored = RunConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored.to_dict() == config.to_dict()

    def test_noise_and_readout_round_trip(self):
        config = RunConfig(
            seed=3,
            noise=NoiseModel.from_channels(
                depolarizing(0.01), readout=ReadoutErrorModel(p01=0.1, p10=0.2)
            ),
            readout_error=ReadoutErrorModel(p01=0.02),
        )
        restored = RunConfig.from_json(config.to_json())
        assert restored.to_dict() == config.to_dict()
        assert restored.noise.gate_channels[0].name == config.noise.gate_channels[0].name
        np.testing.assert_allclose(
            restored.noise.gate_channels[0].operators[0],
            config.noise.gate_channels[0].operators[0],
        )
        assert restored.readout_error.p01 == 0.02

    def test_non_pauli_noise_round_trip(self):
        config = RunConfig(noise=amplitude_damping(0.2))
        restored = RunConfig.from_json(config.to_json())
        assert not restored.noise.is_pauli

    def test_backend_instance_not_serializable(self):
        config = RunConfig(backend=StatevectorBackend())
        with pytest.raises(TypeError, match="registry-name"):
            config.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown RunConfig keys"):
            RunConfig.from_dict({"ensemble_sise": 8})


# ---------------------------------------------------------------------------
# Acceptance: one JSON blob pins a seeded run on every backend
# ---------------------------------------------------------------------------


class TestJsonBlobReproducibility:
    @pytest.mark.parametrize(
        "backend", ["statevector", "density", "stabilizer", "auto", "trajectory"]
    )
    def test_blob_reproduces_verdicts_exactly(self, backend):
        blob = RunConfig(ensemble_size=16, seed=123, backend=backend).to_json()
        first = check_program(bell_program(), RunConfig.from_json(blob))
        second = check_program(bell_program(), RunConfig.from_json(blob))
        assert first.p_values() == second.p_values()
        assert [r.passed for r in first.records] == [
            r.passed for r in second.records
        ]
        assert first.to_dict() == second.to_dict()


# ---------------------------------------------------------------------------
# Session facade
# ---------------------------------------------------------------------------


class TestSession:
    def test_factory_and_overrides(self):
        run = session(RunConfig(seed=1), ensemble_size=8)
        assert isinstance(run, Session)
        assert run.config.ensemble_size == 8 and run.config.seed == 1
        assert session(ensemble_size=4).config.ensemble_size == 4

    def test_check_and_report(self):
        report = session(RunConfig(ensemble_size=16, seed=SEED)).check(bell_program())
        assert report.passed and report.num_breakpoints == 2

    def test_seeded_sessions_reproduce_experiments(self):
        def p_values():
            run = session(RunConfig(ensemble_size=16, seed=SEED))
            return run.check(bell_program()).p_values() + run.check(
                bell_program(with_bug=True)
            ).p_values()

        assert p_values() == p_values()

    def test_raise_on_failure(self):
        run = session(RunConfig(ensemble_size=32, seed=SEED))
        with pytest.raises(AssertionViolation):
            run.check(bell_program(with_bug=True), raise_on_failure=True)

    def test_run_until_converged_attaches_convergence(self):
        run = session(RunConfig(ensemble_size=8, seed=SEED))
        report = run.run_until_converged(bell_program(), se_cutoff=0.05, max_batches=16)
        assert report.convergence
        for row in report.convergence:
            assert row["converged"]
        assert report.records[0].ensemble_size > 8  # ensembles actually grew

    def test_config_converge_flag_drives_check(self):
        run = session(
            RunConfig(ensemble_size=8, seed=SEED, converge=True, se_cutoff=0.05)
        )
        report = run.check(bell_program())
        assert report.convergence

    def test_replace_vs_derive(self):
        run = session(RunConfig(seed=2, ensemble_size=8))
        fresh = run.replace(ensemble_size=16)
        assert fresh.config.ensemble_size == 16
        assert fresh.rng is not run.rng
        shared = run._derive(ensemble_size=16)
        assert shared.rng is run.rng

    def test_sweep_dispatch(self):
        run = session(RunConfig(seed=3, ensemble_size=8))
        rows = run.sweep(
            "ensemble_size",
            bell_program(),
            bell_program(with_bug=True),
            sizes=(8, 16),
            trials=2,
        )
        assert [row["ensemble_size"] for row in rows] == [8, 16]
        with pytest.raises(ValueError, match="unknown sweep"):
            run.sweep("nope")

    def test_checker_shares_session_stream(self):
        run = session(RunConfig(seed=4))
        checker = run.checker(bell_program())
        assert checker.rng is run.rng
        assert checker.executor.rng is run.rng


class TestCheckProgramConverge:
    def test_one_shot_converge_path(self):
        report = check_program(
            bell_program(),
            RunConfig(ensemble_size=8, seed=SEED),
            converge=True,
            se_cutoff=0.05,
            max_batches=16,
        )
        assert report.convergence and report.passed
        assert report.records[0].ensemble_size > 8

    def test_convergence_knob_implies_converge(self):
        # Passing se_cutoff/max_batches without converge=True must not be
        # silently dropped — it states convergence intent.
        report = check_program(
            bell_program(), RunConfig(ensemble_size=8, seed=SEED), se_cutoff=0.05
        )
        assert report.convergence
        report = check_program(
            bell_program(), RunConfig(ensemble_size=8, seed=SEED), max_batches=2
        )
        assert report.convergence
        # An explicit converge=False still wins.
        report = check_program(
            bell_program(),
            RunConfig(ensemble_size=8, seed=SEED),
            converge=False,
            se_cutoff=0.05,
        )
        assert not report.convergence


# ---------------------------------------------------------------------------
# Retired spellings: every pre-RunConfig call fails loudly
# ---------------------------------------------------------------------------


# The seven-kwarg bundle the checker used to accept (``rng`` is covered by
# ``test_non_generator_rng_rejected``: a seed there is a TypeError too).
LEGACY_KWARGS = {
    "ensemble_size": 8,
    "significance": 0.01,
    "mode": "rerun",
    "backend": "statevector",
    "readout_error": ReadoutErrorModel(p01=0.01, p10=0.01),
    "noise": depolarizing(0.001),
}
# The executor's parallel bundle never had ``significance``.
LEGACY_EXECUTOR_KWARGS = [name for name in LEGACY_KWARGS if name != "significance"]


def _legacy_kwarg_params(label, call, names):
    return [
        pytest.param(
            lambda name=name: call(**{name: LEGACY_KWARGS[name]}),
            TypeError,
            "unexpected keyword",
            id=f"{label}-{name}",
        )
        for name in names
    ]


RETIRED_SPELLINGS = [
    *_legacy_kwarg_params(
        "check_program", lambda **kw: check_program(bell_program(), **kw), LEGACY_KWARGS
    ),
    *_legacy_kwarg_params(
        "checker",
        lambda **kw: StatisticalAssertionChecker(bell_program(), **kw),
        LEGACY_KWARGS,
    ),
    *_legacy_kwarg_params(
        "executor", lambda **kw: BreakpointExecutor(**kw), LEGACY_EXECUTOR_KWARGS
    ),
    pytest.param(
        lambda: StatisticalAssertionChecker(bell_program(), 32),
        TypeError,
        None,
        id="checker-positional-int",
    ),
    pytest.param(
        lambda: BreakpointExecutor(8), TypeError, None, id="executor-positional-int"
    ),
    pytest.param(
        # The old second slot was ensemble_size; trials is keyword-only now,
        # so this cannot silently run 8 trials.
        lambda: detection_rate(bell_program(with_bug=True), 8),
        TypeError,
        None,
        id="detection_rate-positional",
    ),
    pytest.param(
        lambda: detection_rate(bell_program(with_bug=True), ensemble_size=16, trials=2),
        TypeError,
        "unexpected keyword",
        id="detection_rate-ensemble_size",
    ),
    pytest.param(
        lambda: ensemble_size_sweep(
            bell_program(), bell_program(with_bug=True), sizes=(8,), trials=1, rng=2
        ),
        TypeError,
        "unexpected keyword",
        id="ensemble_size_sweep-rng",
    ),
    pytest.param(
        lambda: RunConfig.from_dict({"rng": 1}),
        ValueError,
        None,
        id="from_dict-rng-key",
    ),
]


class TestRetiredSpellings:
    @pytest.mark.parametrize("call, error, match", RETIRED_SPELLINGS)
    def test_retired_spelling_fails_loudly(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    @pytest.mark.parametrize(
        "rng",
        [7, np.int64(7), np.random.SeedSequence(7)],
        ids=["int", "np.int64", "SeedSequence"],
    )
    @pytest.mark.parametrize(
        "build",
        [
            lambda rng: StatisticalAssertionChecker(
                bell_program(), RunConfig(ensemble_size=16), rng=rng
            ),
            lambda rng: BreakpointExecutor(RunConfig(ensemble_size=16), rng=rng),
            lambda rng: check_program(
                bell_program(), RunConfig(ensemble_size=16), rng=rng
            ),
        ],
        ids=["checker", "executor", "check_program"],
    )
    def test_non_generator_rng_rejected(self, build, rng):
        # A seed passed as rng= used to be dropped in favour of OS entropy;
        # seeds belong in RunConfig(seed=...).
        with pytest.raises(TypeError, match=r"RunConfig\(seed="):
            build(rng)

    def test_config_path_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            check_program(bell_program(), RunConfig(ensemble_size=8, seed=1))
            detection_rate(
                bell_program(with_bug=True),
                config=RunConfig(ensemble_size=8, seed=1),
                trials=2,
            )
            session(RunConfig(seed=1)).check(bell_program())

    def test_generator_rng_shares_stream(self):
        generator = np.random.default_rng(SEED)
        checker = StatisticalAssertionChecker(bell_program(), rng=generator)
        assert checker.rng is generator
        assert checker.executor.rng is generator

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            check_program(bell_program(), ensemble_sise=8)


# ---------------------------------------------------------------------------
# Executor config path
# ---------------------------------------------------------------------------


class TestExecutorConfig:
    def test_from_config(self):
        config = RunConfig(ensemble_size=12, seed=9, mode="rerun", backend="density")
        executor = BreakpointExecutor(config)
        assert executor.ensemble_size == 12
        assert executor.mode == "rerun"
        assert executor.backend == "density"
        assert executor.config is config

    def test_noise_model_readout_adopted_through_config(self):
        model = NoiseModel(
            gate_channels=(depolarizing(0.01),),
            readout=ReadoutErrorModel(p01=0.2, p10=0.2),
        )
        executor = BreakpointExecutor(RunConfig(noise=model))
        assert executor.readout_error.p01 == 0.2


# ---------------------------------------------------------------------------
# Registry: third-party backends route by name and by "auto" capabilities
# ---------------------------------------------------------------------------


class ToyBackend(StatevectorBackend):
    """A 'third-party' backend: statevector mechanics under a new name."""

    name = "toy"
    instances = 0

    def __init__(self, *args, **kwargs):
        type(self).instances += 1
        super().__init__(*args, **kwargs)


class TestRegistry:
    def test_builtins_listed_with_capabilities(self):
        names = list_backends()
        for name in ("statevector", "density", "stabilizer", "auto", "trajectory"):
            assert name in names
        assert backend_capabilities("stabilizer").clifford_native
        assert "kraus" in backend_capabilities("density").gate_noise
        assert backend_capabilities("trajectory").batched
        assert not backend_capabilities("statevector").gate_noise

    def test_runtime_backend_routed_by_name_and_auto_capabilities(self):
        register_backend(
            "toy",
            ToyBackend,
            BackendCapabilities(clifford_native=True, dense=True, priority=99),
        )
        try:
            # Routed by name through the whole checker pipeline.
            before = ToyBackend.instances
            report = check_program(
                bell_program(), RunConfig(ensemble_size=8, seed=1, backend="toy")
            )
            assert report.passed and ToyBackend.instances > before

            # Routed by capabilities: "auto" prefers the highest-priority
            # Clifford-native backend for an all-Clifford plan.  Drop the
            # plan cache first: "auto" resolves to the same "toy" family, and
            # a snapshot-served run would (correctly) build no new instance.
            default_plan_cache().clear()
            assert clifford_backend_name() == "toy"
            before = ToyBackend.instances
            check_program(
                bell_program(), RunConfig(ensemble_size=8, seed=1, backend="auto")
            )
            assert ToyBackend.instances > before
        finally:
            unregister_backend("toy")
        assert clifford_backend_name() == "stabilizer"
        with pytest.raises(KeyError, match="unknown backend"):
            check_program(bell_program(), RunConfig(backend="toy"))

    def test_registering_native_noise_requires_factory(self):
        with pytest.raises(ValueError, match="noisy_factory"):
            register_backend(
                "bad", ToyBackend, BackendCapabilities(gate_noise={"pauli"})
            )

    def test_make_noisy_backend_rejects_non_pauli_on_pauli_only(self):
        model = NoiseModel.from_channels(amplitude_damping(0.1))
        for name in ("trajectory", "stabilizer"):
            with pytest.raises(ValueError, match="Pauli"):
                make_noisy_backend(name, model)

    def test_capability_flags_validated(self):
        with pytest.raises(ValueError, match="gate-noise families"):
            BackendCapabilities(gate_noise={"thermal"})


# ---------------------------------------------------------------------------
# Sweep-builder semantics: stochastic builders resample per trial
# ---------------------------------------------------------------------------


class TestSweepBuilderSemantics:
    def test_builder_invoked_once_per_trial(self):
        calls = []

        def build():
            calls.append(1)
            return bell_program()

        detection_rate(build, config=RunConfig(ensemble_size=8, seed=0), trials=4)
        assert len(calls) == 4

    def test_stochastic_builder_resamples(self):
        # A builder alternating correct/buggy programs must yield a failure
        # fraction strictly between 0 and 1 — the old build-once behaviour
        # froze the first draw and returned 0.0 or 1.0.
        state = {"count": 0}

        def build():
            state["count"] += 1
            return bell_program(with_bug=state["count"] % 2 == 0)

        rate = detection_rate(
            build, config=RunConfig(ensemble_size=64, seed=SEED), trials=4
        )
        assert rate == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# DebugReport serialization
# ---------------------------------------------------------------------------


class TestReportSerialization:
    def test_round_trip_fixed_point(self):
        report = check_program(bell_program(), RunConfig(ensemble_size=16, seed=5))
        data = report.to_dict()
        json.dumps(data)  # pure JSON, no numpy leakage
        restored = DebugReport.from_dict(data)
        assert restored.to_dict() == data
        assert restored.passed == report.passed
        assert restored.p_values() == report.p_values()

    def test_round_trip_with_convergence_and_failures(self):
        report = check_program(
            bell_program(with_bug=True),
            RunConfig(ensemble_size=16, seed=5, converge=True, se_cutoff=0.05),
        )
        assert report.convergence
        restored = DebugReport.from_json(report.to_json())
        assert restored.to_dict() == report.to_dict()
        assert [r.passed for r in restored.records] == [
            r.passed for r in report.records
        ]
        assert restored.convergence == report.to_dict()["convergence"]

    def test_consistent_with_runconfig_serialization(self):
        # One config blob + one report blob fully describe a run over the wire.
        config = RunConfig(ensemble_size=16, seed=8, backend="density")
        report = check_program(bell_program(), config)
        wire = json.dumps({"config": config.to_dict(), "report": report.to_dict()})
        payload = json.loads(wire)
        replayed = check_program(bell_program(), RunConfig.from_dict(payload["config"]))
        assert replayed.to_dict() == payload["report"]
