"""Observables subsystem: Pauli algebra, TPB grouping, estimation, exactness.

The contracts under test:

* :mod:`repro.observables.pauli` — label/mask round-trips, the product
  table, and the qubit-wise-commutation predicate grouping relies on;
* :mod:`repro.observables.grouping` — every grouping is a *partition* of
  the term indices into pairwise TPB-compatible settings, deterministically;
* cross-backend identity — the exact ``<H>`` agrees across statevector,
  density, stabilizer and auto backends to 1e-12 on Clifford states, and
  the tableau path reports itself exact with zero sampling shots;
* the checker end-to-end — ``assert_observable`` verdicts on sampled and
  exact paths, grouped == per-term verdicts under a shared seed, and the
  ``observable_shots_per_setting`` budget accounting;
* round-trips — QASM comment round-trip of observable assertions and
  RunConfig JSON round-trip of the two new knobs;
* the static analyzer — PROVEN/REFUTED on Clifford preparations and
  UNDECIDED once a non-Clifford rotation taints the support;
* the promoted ``repro.observables.pauli`` location imports warning-free.
"""

from __future__ import annotations

import importlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PauliString, PauliSum, Program, RunConfig, analyze_program
from repro.analysis import PROVEN, REFUTED, UNDECIDED
from repro.core.checker import StatisticalAssertionChecker
from repro.lang.program import run_instructions
from repro.lang.instructions import AssertObservableInstruction
from repro.lang.qasm import from_qasm, to_qasm
from repro.observables.exact import backend_expectation, exact_estimate
from repro.observables.grouping import group_terms
from repro.sim import make_backend
from repro.workloads.chemistry_observables import (
    OBSERVABLE_SCENARIOS,
    build_hf_energy_program,
    build_vqe_energy_program,
    ground_energy,
    h2_hamiltonian,
    hf_energy,
)

SEED = 20190622

#: All four backend families an exact Clifford expectation must agree on.
BACKENDS = ["statevector", "density", "stabilizer", "auto"]


def bell_program(expectation: float = 2.0, tolerance: float = 0.1) -> Program:
    """Bell pair asserting ``<ZZ + XX>`` (both stabilizers: exactly 2)."""
    program = Program("bell_observable")
    q = program.qreg("q", 2)
    program.h(q[0])
    program.cnot(q[0], q[1])
    program.assert_observable(
        q,
        PauliSum([PauliString.from_label("ZZ"), PauliString.from_label("XX")]),
        expectation=expectation,
        tolerance=tolerance,
    )
    return program


def ghz_program(n: int = 3) -> Program:
    program = Program(f"ghz{n}_observable")
    q = program.qreg("q", n)
    program.h(q[0])
    for i in range(n - 1):
        program.cnot(q[i], q[i + 1])
    return program


#: Random Pauli sums for the grouping property tests.
pauli_sums = st.integers(2, 5).flatmap(
    lambda n: st.lists(
        st.tuples(
            st.text(alphabet="IXYZ", min_size=n, max_size=n),
            st.floats(-2.0, 2.0, allow_nan=False),
        ),
        min_size=1,
        max_size=12,
    ).map(
        lambda pairs: PauliSum(
            [PauliString.from_label(label, c) for label, c in pairs]
        )
    )
)


# ---------------------------------------------------------------------------
# Pauli algebra
# ---------------------------------------------------------------------------


class TestPauliAlgebra:
    def test_label_round_trip(self):
        string = PauliString.from_label("XZIY", coefficient=0.5)
        assert string.label() == "XZIY"
        assert string.num_qubits == 4
        assert string.support() == [0, 1, 3]
        assert string.weight() == 3

    def test_mask_round_trip(self):
        string = PauliString.from_label("XZIY")
        x_mask, z_mask = string.symplectic_masks()
        assert (x_mask, z_mask) == (0b1001, 0b1010)
        rebuilt = PauliString.from_masks(x_mask, z_mask, num_qubits=4)
        assert rebuilt.ops == string.ops

    def test_product_table_phase(self):
        x = PauliString.from_label("X")
        y = PauliString.from_label("Y")
        product = x * y
        assert product.ops == ("Z",)
        assert product.coefficient == pytest.approx(1.0j)

    def test_commutes_vs_qubit_wise_commutes(self):
        xx = PauliString.from_label("XX")
        yy = PauliString.from_label("YY")
        # XX and YY commute as operators but share no tensor-product basis.
        assert xx.commutes_with(yy)
        assert not xx.qubit_wise_commutes_with(yy)
        # Disjoint or equal supports are TPB-compatible.
        assert PauliString.from_label("XI").qubit_wise_commutes_with(
            PauliString.from_label("IX")
        )
        assert xx.qubit_wise_commutes_with(PauliString.from_label("XI"))

    def test_simplify_combines_terms(self):
        total = PauliSum(
            [
                PauliString.from_label("ZZ", 0.5),
                PauliString.from_label("ZZ", 0.5),
                PauliString.from_label("XX", 1e-15),
            ]
        ).simplify()
        assert len(total) == 1
        assert total.terms[0].coefficient == pytest.approx(1.0)

    def test_h2_hamiltonian_is_hermitian_15_terms(self):
        hamiltonian = h2_hamiltonian()
        assert len(hamiltonian) == 15
        assert hamiltonian.is_hermitian()

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError):
            PauliString.from_label("XQ")


# ---------------------------------------------------------------------------
# Grouping
# ---------------------------------------------------------------------------


def _assert_partition(observable: PauliSum, settings_list) -> None:
    covered = [i for s in settings_list for i in s.term_indices]
    assert sorted(covered) == list(range(len(observable)))
    assert len(covered) == len(set(covered))


def _assert_compatible(observable: PauliSum, settings_list) -> None:
    terms = observable.terms
    for setting in settings_list:
        for index in setting.term_indices:
            for q, op in enumerate(terms[index].ops):
                if op != "I":
                    assert setting.basis[q] == op
        for a in setting.term_indices:
            for b in setting.term_indices:
                assert terms[a].qubit_wise_commutes_with(terms[b])


class TestGrouping:
    def test_h2_grouping_recovers_five_settings(self):
        hamiltonian = h2_hamiltonian()
        grouped = group_terms(hamiltonian, grouped=True)
        per_term = group_terms(hamiltonian, grouped=False)
        assert len(grouped) == 5
        assert len(per_term) == 15
        _assert_partition(hamiltonian, grouped)
        _assert_partition(hamiltonian, per_term)
        _assert_compatible(hamiltonian, grouped)

    def test_grouping_is_deterministic(self):
        hamiltonian = h2_hamiltonian()
        assert group_terms(hamiltonian) == group_terms(hamiltonian)

    def test_identity_only_observable_needs_no_measurement(self):
        constant = PauliSum([PauliString.identity(3, coefficient=1.5)])
        (setting,) = group_terms(constant)
        assert setting.support() == []
        assert setting.term_indices == (0,)

    @given(observable=pauli_sums)
    @settings(max_examples=60, deadline=None)
    def test_grouped_settings_partition_and_commute(self, observable):
        grouped = group_terms(observable, grouped=True)
        _assert_partition(observable, grouped)
        _assert_compatible(observable, grouped)

    @given(observable=pauli_sums)
    @settings(max_examples=30, deadline=None)
    def test_per_term_baseline_is_one_setting_per_term(self, observable):
        per_term = group_terms(observable, grouped=False)
        assert len(per_term) == len(observable)
        _assert_partition(observable, per_term)


# ---------------------------------------------------------------------------
# Cross-backend exact identity
# ---------------------------------------------------------------------------


class TestCrossBackendIdentity:
    @pytest.mark.parametrize(
        "build, observable, expected",
        [
            (
                bell_program,
                PauliSum(
                    [PauliString.from_label("ZZ"), PauliString.from_label("XX")]
                ),
                2.0,
            ),
            (
                ghz_program,
                PauliSum(
                    [
                        PauliString.from_label("ZZI"),
                        PauliString.from_label("IZZ"),
                        PauliString.from_label("XXX"),
                    ]
                ),
                3.0,
            ),
            (build_hf_energy_program, None, None),  # H2 at the HF reference
        ],
        ids=["bell", "ghz3", "hf"],
    )
    def test_exact_expectation_identical_across_backends(
        self, build, observable, expected
    ):
        program = build()
        if observable is None:
            observable, expected = h2_hamiltonian(), hf_energy()
        values = {}
        for name in BACKENDS:
            backend = make_backend(name).initialize(program.num_qubits)
            run_instructions(program, program.instructions, backend)
            values[name] = backend_expectation(backend, observable)
        reference = values["statevector"]
        assert reference == pytest.approx(expected, abs=1e-9)
        for name, value in values.items():
            assert abs(value - reference) <= 1e-12, (name, value, reference)

    def test_tableau_estimate_is_exact_and_free(self):
        program = bell_program()
        backend = make_backend("stabilizer").initialize(program.num_qubits)
        run_instructions(program, program.instructions, backend)
        estimate = exact_estimate(
            backend,
            PauliSum([PauliString.from_label("ZZ"), PauliString.from_label("XX")]),
        )
        assert estimate.exact
        assert estimate.num_settings == 0
        assert estimate.total_shots == 0
        assert estimate.standard_error == 0.0
        assert estimate.value == pytest.approx(2.0, abs=1e-12)
        assert [t.value for t in estimate.terms] == pytest.approx([1.0, 1.0])


# ---------------------------------------------------------------------------
# Checker end-to-end
# ---------------------------------------------------------------------------


def _single_record(program: Program, config: RunConfig):
    report = StatisticalAssertionChecker(program, config).run()
    (record,) = report.records
    return report, record


class TestCheckerEndToEnd:
    def test_sampled_observable_passes(self):
        config = RunConfig(backend="statevector", seed=SEED)
        report, record = _single_record(bell_program(), config)
        assert report.passed and record.outcome.passed
        assert record.outcome.assertion_type == "observable"
        assert record.method == "observable"
        details = record.outcome.details
        assert details["exact"] is False
        assert details["num_settings"] == 2  # ZZ and XX cannot share a basis
        assert details["total_shots"] == 2 * config.observable_shots_per_setting
        assert details["mean"] == pytest.approx(2.0, abs=0.1)

    def test_sampled_observable_fails_on_wrong_expectation(self):
        config = RunConfig(backend="statevector", seed=SEED)
        _, record = _single_record(
            bell_program(expectation=0.0, tolerance=0.1), config
        )
        assert not record.outcome.passed

    def test_exact_observable_zero_shots(self):
        for backend in ("stabilizer", "auto"):
            config = RunConfig(backend=backend, seed=SEED)
            report, record = _single_record(build_hf_energy_program(), config)
            assert report.passed
            details = record.outcome.details
            assert details["exact"] is True
            assert details["total_shots"] == 0
            assert record.ensemble_size == 0
            assert details["mean"] == pytest.approx(hf_energy(), abs=1e-12)

    def test_exact_observable_refutes_bug(self):
        config = RunConfig(backend="auto", seed=SEED)
        report, record = _single_record(
            build_hf_energy_program(buggy=True), config
        )
        assert not report.passed
        assert record.outcome.details["exact"] is True

    def test_shots_per_setting_budget(self):
        config = RunConfig(
            backend="statevector", seed=SEED, observable_shots_per_setting=64
        )
        _, record = _single_record(bell_program(), config)
        assert record.outcome.details["total_shots"] == 2 * 64

    def test_grouped_and_per_term_verdicts_identical(self):
        for build in (
            bell_program,
            lambda: build_vqe_energy_program(),
            lambda: build_vqe_energy_program(buggy=True),
        ):
            outcomes = {}
            for grouped in (True, False):
                config = RunConfig(
                    backend="statevector", seed=SEED, group_observables=grouped
                )
                _, record = _single_record(build(), config)
                outcomes[grouped] = record.outcome.passed
            assert outcomes[True] == outcomes[False]

    def test_h2_settings_reduction(self):
        grouped_cfg = RunConfig(backend="statevector", seed=SEED)
        per_term_cfg = grouped_cfg.replace(group_observables=False)
        _, grouped = _single_record(build_vqe_energy_program(), grouped_cfg)
        _, per_term = _single_record(build_vqe_energy_program(), per_term_cfg)
        assert grouped.outcome.details["num_settings"] == 5
        assert per_term.outcome.details["num_settings"] == 15
        assert per_term.outcome.passed == grouped.outcome.passed

    def test_scenario_catalog_verdicts(self):
        for name, scenario in OBSERVABLE_SCENARIOS.items():
            config = RunConfig(backend="auto", seed=SEED)
            correct_report = StatisticalAssertionChecker(
                scenario.build_correct(), config
            ).run()
            buggy_report = StatisticalAssertionChecker(
                scenario.build_buggy(), config
            ).run()
            assert correct_report.passed, name
            assert not buggy_report.passed, name

    def test_vqe_expectation_hits_ground_energy(self):
        config = RunConfig(backend="statevector", seed=SEED)
        _, record = _single_record(build_vqe_energy_program(), config)
        assert record.outcome.details["mean"] == pytest.approx(
            ground_energy(), abs=0.02
        )


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------


class TestRoundTrips:
    def test_qasm_round_trip_preserves_observable_assertion(self):
        program = build_hf_energy_program()
        text = to_qasm(program)
        assert "assert_observable" in text
        rebuilt = from_qasm(text)
        original = next(
            i
            for i in program.instructions
            if isinstance(i, AssertObservableInstruction)
        )
        restored = next(
            i
            for i in rebuilt.instructions
            if isinstance(i, AssertObservableInstruction)
        )
        assert len(restored.targets) == len(original.targets)
        assert restored.expectation == pytest.approx(original.expectation)
        assert restored.tolerance == pytest.approx(original.tolerance)
        want = sorted(
            (t.label(), complex(t.coefficient)) for t in original.observable
        )
        got = sorted(
            (t.label(), complex(t.coefficient)) for t in restored.observable
        )
        assert len(got) == len(want)
        for (got_label, got_c), (want_label, want_c) in zip(got, want):
            assert got_label == want_label
            assert got_c == pytest.approx(want_c, abs=1e-9)

    def test_qasm_round_trip_preserves_verdict(self):
        config = RunConfig(backend="statevector", seed=SEED)
        original = StatisticalAssertionChecker(bell_program(), config).run()
        rebuilt_program = from_qasm(to_qasm(bell_program()))
        rebuilt = StatisticalAssertionChecker(rebuilt_program, config).run()
        assert rebuilt.passed == original.passed
        assert (
            rebuilt.records[0].outcome.details["num_settings"]
            == original.records[0].outcome.details["num_settings"]
        )

    def test_runconfig_round_trip_preserves_observable_knobs(self):
        config = RunConfig(
            observable_shots_per_setting=128, group_observables=False
        )
        rebuilt = RunConfig.from_json(config.to_json())
        assert rebuilt.observable_shots_per_setting == 128
        assert rebuilt.group_observables is False
        assert rebuilt == config

    @pytest.mark.parametrize("bad", [0, -1])
    def test_shots_per_setting_must_be_positive(self, bad):
        with pytest.raises(ValueError):
            RunConfig(observable_shots_per_setting=bad)

    def test_assert_observable_validation(self):
        program = Program("invalid")
        q = program.qreg("q", 2)
        zz = PauliSum([PauliString.from_label("ZZ")])
        with pytest.raises(ValueError):
            program.assert_observable([q[0], q[0]], zz, expectation=1.0)
        with pytest.raises(ValueError):
            program.assert_observable([q[0]], zz, expectation=1.0)
        with pytest.raises(ValueError):
            program.assert_observable(q, zz, expectation=1.0, tolerance=-0.5)
        with pytest.raises(ValueError):
            program.assert_observable(
                q,
                PauliSum([PauliString.from_label("ZZ", 1.0j)]),
                expectation=1.0,
            )


# ---------------------------------------------------------------------------
# Static analysis
# ---------------------------------------------------------------------------


class TestStaticObservable:
    def test_clifford_observable_proven(self):
        result = analyze_program(build_hf_energy_program())
        (verdict,) = result.verdicts
        assert verdict.assertion_type == "observable"
        assert verdict.verdict == PROVEN

    def test_clifford_observable_refuted(self):
        result = analyze_program(build_hf_energy_program(buggy=True))
        (verdict,) = result.verdicts
        assert verdict.verdict == REFUTED

    def test_non_clifford_support_undecided(self):
        result = analyze_program(build_vqe_energy_program())
        (verdict,) = result.verdicts
        assert verdict.verdict == UNDECIDED

    def test_static_preflight_short_circuits_checker(self):
        config = RunConfig(backend="auto", seed=SEED, static_preflight=True)
        report, record = _single_record(build_hf_energy_program(), config)
        assert report.passed
        assert record.method == "static"
        assert record.ensemble_size == 0


# ---------------------------------------------------------------------------
# Import hygiene
# ---------------------------------------------------------------------------


class TestChemistryPauliShim:
    def test_new_location_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            module = importlib.reload(
                importlib.import_module("repro.observables.pauli")
            )
        assert module.PauliString.from_label("Z").label() == "Z"
