"""Tests for the bug taxonomy, bug injection scenarios and the workload sweeps."""

import pytest

from repro.bugs import BUG_CATALOG, BUG_SCENARIOS, BugType, defense_for, get_scenario, scenario_names
from repro.core import RunConfig, check_program
from repro.workloads import (
    assertion_cost,
    detection_rate,
    ensemble_size_sweep,
    false_positive_rate,
    significance_sweep,
)


class TestCatalog:
    def test_all_six_bug_types_documented(self):
        assert len(BUG_CATALOG) == 6
        assert {b.value for b in BUG_CATALOG} == {1, 2, 3, 4, 5, 6}

    def test_every_entry_names_a_defense(self):
        for description in BUG_CATALOG.values():
            assert description.defense
            assert description.assertion_types
            assert description.section.startswith("4.")

    def test_defense_lookup(self):
        assert "entangled" in defense_for(BugType.INCORRECT_RECURSION)
        assert "product" in defense_for(BugType.INCORRECT_MIRRORING)
        assert "classical" in defense_for(BugType.INCORRECT_CLASSICAL_INPUT)


class TestScenarios:
    def test_registry_covers_every_bug_type(self):
        covered = {scenario.bug_type for scenario in BUG_SCENARIOS.values()}
        assert covered == set(BugType)

    def test_get_scenario(self):
        assert get_scenario("control_routing").bug_type == BugType.INCORRECT_RECURSION
        with pytest.raises(KeyError):
            get_scenario("nonexistent")
        assert "control_routing" in scenario_names()

    @pytest.mark.parametrize("name", sorted(BUG_SCENARIOS))
    def test_correct_program_passes(self, name):
        scenario = BUG_SCENARIOS[name]
        report = check_program(
            scenario.build_correct(),
            RunConfig(ensemble_size=scenario.ensemble_size, seed=7),
        )
        assert report.passed, f"{name}: {report.summary()}"

    @pytest.mark.parametrize("name", sorted(BUG_SCENARIOS))
    def test_buggy_program_is_caught(self, name):
        scenario = BUG_SCENARIOS[name]
        report = check_program(
            scenario.build_buggy(),
            RunConfig(ensemble_size=scenario.ensemble_size, seed=7),
        )
        assert not report.passed, f"{name} was not caught"

    @pytest.mark.parametrize("name", sorted(BUG_SCENARIOS))
    def test_bug_is_caught_by_the_advertised_assertion(self, name):
        scenario = BUG_SCENARIOS[name]
        report = check_program(
            scenario.build_buggy(),
            RunConfig(ensemble_size=scenario.ensemble_size, seed=11),
        )
        failing_types = {record.outcome.assertion_type for record in report.failures()}
        assert scenario.catching_assertion in failing_types


class TestWorkloads:
    def test_detection_rate_on_obvious_bug(self):
        scenario = BUG_SCENARIOS["flipped_rotation_angles"]
        rate = detection_rate(
            scenario.build_buggy,
            trials=5,
            config=RunConfig(ensemble_size=8, seed=1),
        )
        assert rate == 1.0

    def test_false_positive_rate_on_correct_program(self):
        scenario = BUG_SCENARIOS["flipped_rotation_angles"]
        rate = false_positive_rate(
            scenario.build_correct,
            trials=5,
            config=RunConfig(ensemble_size=8, seed=1),
        )
        assert rate == 0.0

    def test_ensemble_size_sweep_shape(self):
        scenario = BUG_SCENARIOS["control_routing"]
        rows = ensemble_size_sweep(
            scenario.build_correct,
            scenario.build_buggy,
            sizes=(8, 16),
            trials=3,
            config=RunConfig(seed=2),
        )
        assert [row["ensemble_size"] for row in rows] == [8, 16]
        for row in rows:
            assert 0.0 <= row["detection_rate"] <= 1.0
            assert 0.0 <= row["false_positive_rate"] <= 1.0

    def test_detection_improves_with_ensemble_size(self):
        """More measurements -> the entanglement assertion flags the routing bug more often."""
        scenario = BUG_SCENARIOS["control_routing"]
        small = detection_rate(
            scenario.build_buggy,
            trials=8,
            config=RunConfig(ensemble_size=4, seed=3),
        )
        large = detection_rate(
            scenario.build_buggy,
            trials=8,
            config=RunConfig(ensemble_size=64, seed=3),
        )
        assert large >= small

    def test_significance_sweep_shape(self):
        scenario = BUG_SCENARIOS["flipped_rotation_angles"]
        rows = significance_sweep(
            scenario.build_correct,
            scenario.build_buggy,
            significances=(0.01, 0.1),
            trials=3,
            config=RunConfig(ensemble_size=8, seed=4),
        )
        assert [row["significance"] for row in rows] == [0.01, 0.1]

    def test_assertion_cost_accounting(self):
        scenario = BUG_SCENARIOS["control_routing"]
        cost = assertion_cost(scenario.build_correct(), ensemble_size=16)
        assert cost["num_assertions"] == 4
        assert cost["total_prefix_gates"] > 0
        assert cost["rerun_mode_simulated_gates"] == cost["total_prefix_gates"] * 16
        assert len(cost["gates_per_breakpoint"]) == 4
        assert cost["gates_per_breakpoint"] == sorted(cost["gates_per_breakpoint"])
