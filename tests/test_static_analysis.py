"""Static assertion prover: abstract interpretation over ExecutionPlans.

Covers the stabilizer-domain interpreter (PROVEN / REFUTED / UNDECIDED
verdicts), the decidability boundary (non-Clifford gates taint), checker
short-circuiting via ``RunConfig(static_preflight=True)``, analysis caching,
and — the paper-level claim — that the static verdicts agree with the
sampled statistical tests on the full Clifford (scenario x variant) matrix
across every backend family.
"""

from __future__ import annotations

import pytest

import repro
from repro.analysis import (
    PROVEN,
    REFUTED,
    UNDECIDED,
    AnalysisResult,
    analyze_program,
)
from repro.compiler.plan_cache import default_plan_cache
from repro.core import RunConfig, Session
from repro.core.checker import StatisticalAssertionChecker
from repro.lang import Program
from repro.observables.pauli import PauliString, PauliSum
from repro.sim.noise import NoiseModel, ReadoutErrorModel, depolarizing
from repro.workloads.clifford import CLIFFORD_SCENARIOS, build_ghz_chain_program

SEED = 20190622
BACKENDS = ("statevector", "density", "stabilizer", "auto", "trajectory")


def _bell_program(flip: bool = False) -> Program:
    program = Program("bell")
    register = program.qreg("q", 2)
    program.prep_z(register[0], 0).prep_z(register[1], 0)
    program.h(register[0])
    if not flip:
        program.gate("x", [register[1]], controls=[register[0]])
    program.assert_entangled([register[0]], [register[1]])
    program.measure(register)
    return program


# ---------------------------------------------------------------------------
# Interpreter verdicts
# ---------------------------------------------------------------------------


class TestVerdicts:
    def test_bell_entanglement_proven(self):
        result = analyze_program(_bell_program())
        assert result.all_decided
        assert [v.verdict for v in result.verdicts] == [PROVEN]

    def test_broken_bell_entanglement_refuted(self):
        result = analyze_program(_bell_program(flip=True))
        assert [v.verdict for v in result.verdicts] == [REFUTED]

    def test_classical_assertion_decided_exactly(self):
        program = Program("classical")
        register = program.qreg("q", 3)
        program.prepare_int(register, 5)
        program.assert_classical(register, 5)
        program.assert_classical(register, 4, label="wrong")
        program.measure(register)
        result = analyze_program(program)
        assert [v.verdict for v in result.verdicts] == [PROVEN, REFUTED]
        assert result.verdicts[0].passed is True
        assert result.verdicts[1].passed is False

    def test_superposition_support_compared_exactly(self):
        program = Program("superposition")
        register = program.qreg("q", 2)
        program.prep_z(register[0], 0).prep_z(register[1], 0)
        program.h(register[0])
        program.assert_superposition([register[0]])
        program.assert_superposition(register, label="wrong: q[1] not in it")
        program.measure(register)
        result = analyze_program(program)
        assert [v.verdict for v in result.verdicts] == [PROVEN, REFUTED]

    def test_product_state_proven_for_independent_qubits(self):
        program = Program("product")
        register = program.qreg("q", 2)
        program.prep_z(register[0], 0).prep_z(register[1], 0)
        program.h(register[0]).h(register[1])
        program.assert_product([register[0]], [register[1]])
        program.measure(register)
        result = analyze_program(program)
        assert [v.verdict for v in result.verdicts] == [PROVEN]

    def test_non_clifford_gate_taints_operands(self):
        program = Program("tainted")
        register = program.qreg("q", 2)
        program.prep_z(register[0], 0).prep_z(register[1], 0)
        program.h(register[0])
        program.gate("t", register[0])  # non-Clifford: q[0] goes to top
        program.assert_superposition([register[0]])
        program.assert_classical([register[1]], 0, label="q[1] still clean")
        program.measure(register)
        result = analyze_program(program)
        assert [v.verdict for v in result.verdicts] == [UNDECIDED, PROVEN]
        assert not result.all_decided
        assert result.num_undecided == 1

    def test_taint_spreads_through_entangling_gates(self):
        program = Program("taint_spread")
        register = program.qreg("q", 2)
        program.prep_z(register[0], 0).prep_z(register[1], 0)
        program.gate("t", register[0])
        program.gate("x", [register[1]], controls=[register[0]])
        program.assert_classical([register[1]], 0)
        program.measure(register)
        result = analyze_program(program)
        assert [v.verdict for v in result.verdicts] == [UNDECIDED]

    def test_midcircuit_prep_on_entangled_qubit_taints_partner(self):
        # |q0 q1> is a Bell pair; re-prepping q1 collapses it, so q1 is a
        # known constant afterwards but q0's marginal depends on the
        # (unmodelled) collapse outcome — the interpreter must not claim it.
        program = Program("reprep")
        register = program.qreg("q", 2)
        program.prep_z(register[0], 0).prep_z(register[1], 0)
        program.h(register[0])
        program.gate("x", [register[1]], controls=[register[0]])
        program.prep_z(register[1], 0)
        program.assert_classical([register[1]], 0, label="freshly prepped")
        program.assert_superposition([register[0]], label="partner unknowable")
        program.measure(register)
        result = analyze_program(program)
        assert [v.verdict for v in result.verdicts] == [PROVEN, UNDECIDED]

    def test_verdict_round_trip(self):
        result = analyze_program(_bell_program())
        restored = AnalysisResult.from_dict(result.to_dict())
        assert restored.to_dict() == result.to_dict()
        assert restored.verdicts == result.verdicts


# ---------------------------------------------------------------------------
# Clifford corpus: fully decided at moderate and deep widths
# ---------------------------------------------------------------------------


class TestCorpusDecidability:
    @pytest.mark.parametrize("name", sorted(CLIFFORD_SCENARIOS))
    @pytest.mark.parametrize("buggy", [False, True])
    def test_moderate_widths_fully_decided(self, name, buggy):
        scenario = CLIFFORD_SCENARIOS[name]
        program = scenario.build(scenario.moderate_qubits, buggy)
        result = analyze_program(program)
        assert result.all_decided, result.summary()
        # The buggy variant must be statically refuted, the correct variant
        # statically proven throughout.
        if buggy:
            assert result.num_refuted >= 1
            refuted = [v for v in result.verdicts if v.verdict == REFUTED]
            assert any(
                v.assertion_type == scenario.catching_assertion for v in refuted
            )
        else:
            assert result.num_refuted == 0
            assert all(v.verdict == PROVEN for v in result.verdicts)

    @pytest.mark.parametrize("name", sorted(CLIFFORD_SCENARIOS))
    def test_deep_widths_fully_decided(self, name):
        scenario = CLIFFORD_SCENARIOS[name]
        for buggy in (False, True):
            program = scenario.build(scenario.deep_qubits, buggy)
            result = analyze_program(program)
            assert result.all_decided, result.summary()


# ---------------------------------------------------------------------------
# Static vs sampled agreement (scenario x variant x backend family)
# ---------------------------------------------------------------------------


class TestStaticSampledAgreement:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(CLIFFORD_SCENARIOS))
    @pytest.mark.parametrize("buggy", [False, True])
    def test_agreement_matrix(self, backend, name, buggy):
        scenario = CLIFFORD_SCENARIOS[name]
        program = scenario.build(scenario.moderate_qubits, buggy)
        static = analyze_program(program)
        assert static.all_decided
        session = Session(
            RunConfig(
                ensemble_size=scenario.ensemble_size,
                seed=SEED,
                backend=backend,
            )
        )
        report = session.check(program)
        assert len(report.records) == len(static.verdicts)
        for record, verdict in zip(report.records, static.verdicts):
            assert record.method == "sampled"
            assert record.passed == verdict.passed, (
                f"{name} buggy={buggy} backend={backend} breakpoint "
                f"{record.index}: sampled={record.passed} "
                f"static={verdict.verdict} ({verdict.reason})"
            )


# ---------------------------------------------------------------------------
# Checker integration: pre-flight short-circuiting
# ---------------------------------------------------------------------------


class TestStaticPreflight:
    def test_full_short_circuit_skips_executor_entirely(self):
        program = _bell_program()
        session = Session(RunConfig(seed=SEED, static_preflight=True))
        checker = session.checker(program)
        report = checker.run()
        assert checker.executor.gates_applied == 0
        assert report.num_static == len(report.records) == 1
        assert report.passed
        record = report.records[0]
        assert record.method == "static"
        assert record.ensemble_size == 0
        assert record.outcome.details["method"] == "static"

    def test_full_short_circuit_refutes_buggy_variant(self):
        report = Session(RunConfig(seed=SEED, static_preflight=True)).check(
            _bell_program(flip=True)
        )
        assert report.num_static == 1
        assert not report.passed

    def test_partial_short_circuit_mixes_methods(self):
        # Clifford prefix decides the first assertion; a T gate then taints
        # the register, so the later assertions must fall back to sampling.
        program = Program("mixed")
        register = program.qreg("q", 2)
        program.prep_z(register[0], 0).prep_z(register[1], 0)
        program.assert_classical(register, 0, label="decidable prefix")
        program.h(register[0])
        program.gate("t", register[0])
        program.gate("tdg", register[0])
        program.assert_superposition([register[0]], label="needs sampling")
        program.measure(register)
        session = Session(RunConfig(seed=SEED, static_preflight=True))
        report = session.check(program)
        methods = [record.method for record in report.records]
        assert methods == ["static", "sampled"]
        assert report.num_static == 1 and report.num_sampled == 1
        assert [record.index for record in report.records] == [0, 1]
        assert report.passed

    def test_preflight_off_by_default(self):
        report = Session(RunConfig(seed=SEED)).check(_bell_program())
        assert report.num_static == 0
        assert all(record.method == "sampled" for record in report.records)

    def test_gate_noise_disables_preflight(self):
        config = RunConfig(
            seed=SEED,
            static_preflight=True,
            backend="trajectory",
            noise=NoiseModel(gate_channels=(depolarizing(0.01),)),
        )
        report = Session(config).check(_bell_program())
        assert report.num_static == 0

    def test_readout_error_disables_preflight(self):
        config = RunConfig(
            seed=SEED,
            static_preflight=True,
            readout_error=ReadoutErrorModel(p01=0.05, p10=0.05),
        )
        report = Session(config).check(_bell_program())
        assert report.num_static == 0

    def test_short_circuit_savings_recorded(self):
        program = _bell_program()
        session = Session(RunConfig(seed=SEED, static_preflight=True))
        checker = session.checker(program)
        checker.run()
        plan = checker.execution_plan()
        assert plan.static_short_circuits == 1
        assert plan.static_gates_saved == plan.total_gates > 0
        stats = default_plan_cache().stats()
        assert stats["static_short_circuits"] == 1
        assert stats["static_gates_saved"] == plan.total_gates

    @pytest.mark.parametrize("observable", [False, True])
    def test_rerun_savings_equal_the_sampled_rerun_work(self, observable):
        """Rerun re-simulates a plain prefix once per ensemble member and an
        observable prefix once, so a full short-circuit saves exactly the
        gates the sampled rerun applies (basis rotations are readout, not
        prefix work)."""
        program = build_ghz_chain_program(12)
        if observable:
            program = Program("observable_ghz")
            q = program.qreg("q", 3)
            program.h(q[0])
            program.cnot(q[0], q[1])
            program.cnot(q[1], q[2])
            program.assert_observable(
                q,
                PauliSum([PauliString.from_label("ZZI"), PauliString.from_label("XXX")]),
                expectation=2.0,
            )
        config = RunConfig(seed=SEED, ensemble_size=16, mode="rerun")
        sampled = StatisticalAssertionChecker(program, config)
        sampled.run()
        default_plan_cache().clear()
        static = StatisticalAssertionChecker(
            program, config.replace(static_preflight=True)
        )
        report = static.run()
        plan = static.execution_plan()
        assert report.num_sampled == 0
        assert static.executor.gates_applied == 0
        assert plan.static_gates_saved == sampled.executor.gates_applied > 0

    def test_corpus_short_circuits_match_plain_verdicts(self):
        for scenario in CLIFFORD_SCENARIOS.values():
            for buggy in (False, True):
                program = scenario.build(scenario.moderate_qubits, buggy)
                static_report = Session(
                    RunConfig(seed=SEED, static_preflight=True)
                ).check(program)
                assert static_report.num_sampled == 0
                assert static_report.passed == (not buggy)


# ---------------------------------------------------------------------------
# Caching and the Session facade
# ---------------------------------------------------------------------------


class TestAnalysisCaching:
    def test_analysis_cached_by_fingerprint(self):
        cache = default_plan_cache()
        session = Session(RunConfig(seed=SEED))
        first = session.analyze(_bell_program())
        second = session.analyze(_bell_program())
        assert first.verdicts == second.verdicts
        stats = cache.stats()
        assert stats["analysis_misses"] == 1
        assert stats["analysis_hits"] == 1

    def test_preflight_reuses_cached_analysis(self):
        session = Session(RunConfig(seed=SEED, static_preflight=True))
        session.analyze(_bell_program())
        session.check(_bell_program())
        stats = default_plan_cache().stats()
        assert stats["analysis_misses"] == 1
        assert stats["analysis_hits"] >= 1

    def test_session_analyze_returns_analysis_result(self):
        result = Session(RunConfig()).analyze(_bell_program())
        assert isinstance(result, AnalysisResult)
        assert result.fingerprint
        assert result.program_name == "bell"


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


class TestReportPlumbing:
    def test_method_and_diagnostics_round_trip(self):
        program = Program("roundtrip")
        register = program.qreg("q", 2)
        program.prepare_int(register, 2)
        program.assert_classical(register, 3, label="impossible")  # QLINT006
        program.measure(register)
        report = Session(RunConfig(seed=SEED, static_preflight=True)).check(program)
        assert report.num_static == 1
        assert not report.passed
        assert any(d["code"] == "QLINT006" for d in report.diagnostics)
        restored = repro.DebugReport.from_dict(report.to_dict())
        assert restored.to_dict() == report.to_dict()
        assert [r.method for r in restored.records] == ["static"]
        assert restored.diagnostics == report.diagnostics

    def test_describe_reports_split_and_diagnostics(self):
        program = Program("describe")
        register = program.qreg("q", 2)
        program.prepare_int(register, 2)
        program.assert_classical(register, 3)
        program.measure(register)
        report = Session(RunConfig(seed=SEED, static_preflight=True)).check(program)
        text = report.describe()
        assert "assertions: 1 static, 0 sampled" in text
        assert "QLINT006" in text

    def test_legacy_payload_defaults_to_sampled(self):
        report = Session(RunConfig(seed=SEED)).check(_bell_program())
        payload = report.to_dict()
        for record in payload["records"]:
            del record["method"]
        del payload["diagnostics"]
        restored = repro.DebugReport.from_dict(payload)
        assert all(record.method == "sampled" for record in restored.records)
        assert restored.diagnostics == []

    def test_runconfig_round_trips_static_preflight(self):
        config = RunConfig(seed=SEED, static_preflight=True)
        restored = RunConfig.from_dict(config.to_dict())
        assert restored.static_preflight is True
        assert restored == config


# ---------------------------------------------------------------------------
# Configurable support-enumeration cap (RunConfig.max_support)
# ---------------------------------------------------------------------------


def _ghz_program(num_qubits: int = 6) -> Program:
    program = Program("ghz_cap")
    register = program.qreg("q", num_qubits)
    for qubit in register:
        program.prep_z(qubit, 0)
    program.h(register[0])
    for i in range(num_qubits - 1):
        program.gate("x", [register[i + 1]], controls=[register[i]])
    program.assert_superposition(
        [register[0], register[-1]], values=(0, 3), label="ends"
    )
    program.assert_entangled([register[0]], [register[-1]], label="pair")
    program.measure(register)
    return program


class TestMaxSupport:
    def test_default_limit_decides_everything(self):
        result = analyze_program(_ghz_program())
        assert [v.verdict for v in result.verdicts] == [PROVEN, PROVEN]

    def test_tiny_cap_degrades_to_undecided(self):
        result = analyze_program(_ghz_program(), max_support=1)
        assert [v.verdict for v in result.verdicts] == [UNDECIDED, UNDECIDED]
        assert "1-outcome" in result.verdicts[0].reason

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            analyze_program(_ghz_program(), max_support=0)

    def test_plan_cache_keys_per_cap(self):
        from repro.compiler.plan_cache import PlanCache

        cache = PlanCache()
        plan = cache.plan_for(_ghz_program())
        default_a = cache.analysis_for(plan)
        default_b = cache.analysis_for(plan)
        capped_a = cache.analysis_for(plan, max_support=1)
        capped_b = cache.analysis_for(plan, max_support=1)
        assert default_a is default_b
        assert capped_a is capped_b
        assert default_a is not capped_a
        assert cache.analysis_hits == 2
        assert cache.analysis_misses == 2

    def test_runconfig_threads_cap_into_checker_analysis(self):
        capped = Session(RunConfig(seed=SEED, max_support=1)).checker(
            _ghz_program()
        )
        assert all(
            v.verdict == UNDECIDED for v in capped.analyze().verdicts
        )
        full = Session(RunConfig(seed=SEED)).checker(_ghz_program())
        assert all(v.verdict == PROVEN for v in full.analyze().verdicts)

    def test_runconfig_round_trips_max_support(self):
        config = RunConfig(seed=SEED, max_support=256)
        assert RunConfig.from_dict(config.to_dict()).max_support == 256
