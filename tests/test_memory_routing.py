"""Memory-aware dense-width routing: budget derivation and executor policy.

The executor must never hand an over-budget width to a dense backend: a
dense request beyond ``dense_qubit_budget()`` raises an actionable error
*before* any allocation, while ``backend="auto"`` on a Clifford plan routes
to the tableau and records the decision on ``ExecutionPlan.routing_note``.
The budget itself resolves ``RunConfig.max_dense_qubits`` over the
``REPRO_MAX_DENSE_QUBITS`` environment variable over host memory.
"""

import pytest

from repro.compiler import BreakpointExecutor, build_execution_plan
from repro.core.config import RunConfig
from repro.sim.memory import (
    BYTES_PER_AMPLITUDE,
    ENV_MAX_DENSE_QUBITS,
    FALLBACK_MEMORY_BYTES,
    dense_qubit_budget,
    host_memory_bytes,
)
from repro.workloads import build_ghz_chain_program

GIB = 1024**3


class TestDenseQubitBudget:
    def test_budget_follows_memory(self):
        # floor(log2(bytes / 16)): 4 GiB -> 28 qubits, 32 GiB -> 31.
        assert dense_qubit_budget(memory_bytes=4 * GIB) == 28
        assert dense_qubit_budget(memory_bytes=32 * GIB) == 31
        assert dense_qubit_budget(memory_bytes=128 * GIB) == 33

    def test_budget_is_exact_at_power_boundaries(self):
        bytes_for_20 = (1 << 20) * BYTES_PER_AMPLITUDE
        assert dense_qubit_budget(memory_bytes=bytes_for_20) == 20
        assert dense_qubit_budget(memory_bytes=bytes_for_20 - 1) == 19

    def test_tiny_memory_never_goes_negative(self):
        assert dense_qubit_budget(memory_bytes=0) >= 1
        assert dense_qubit_budget(memory_bytes=17) >= 1

    def test_explicit_cap_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_MAX_DENSE_QUBITS, "30")
        assert dense_qubit_budget(max_dense_qubits=12) == 12

    def test_explicit_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            dense_qubit_budget(max_dense_qubits=0)

    def test_env_var_overrides_memory(self, monkeypatch):
        monkeypatch.setenv(ENV_MAX_DENSE_QUBITS, "17")
        assert dense_qubit_budget(memory_bytes=128 * GIB) == 17

    def test_env_var_validation(self, monkeypatch):
        monkeypatch.setenv(ENV_MAX_DENSE_QUBITS, "not-a-number")
        with pytest.raises(ValueError, match="integer"):
            dense_qubit_budget()
        monkeypatch.setenv(ENV_MAX_DENSE_QUBITS, "-3")
        with pytest.raises(ValueError, match="positive"):
            dense_qubit_budget()

    def test_host_memory_probe_returns_something_sane(self):
        assert host_memory_bytes() >= min(FALLBACK_MEMORY_BYTES, 1 * GIB)


class TestExecutorRouting:
    def _plan(self, num_qubits=40):
        return build_execution_plan(build_ghz_chain_program(num_qubits))

    def test_dense_request_beyond_budget_is_refused(self, monkeypatch):
        monkeypatch.setenv(ENV_MAX_DENSE_QUBITS, "20")
        executor = BreakpointExecutor(
            RunConfig(ensemble_size=4, seed=1, backend="statevector"),
        )
        with pytest.raises(ValueError) as excinfo:
            executor.run_plan(self._plan(40))
        message = str(excinfo.value)
        assert "20-qubit budget" in message
        assert "REPRO_MAX_DENSE_QUBITS" in message
        assert "max_dense_qubits" in message

    def test_config_cap_refuses_dense_request(self):
        config = RunConfig(
            ensemble_size=4, seed=1, backend="statevector", max_dense_qubits=20
        )
        executor = BreakpointExecutor(config)
        with pytest.raises(ValueError, match="20-qubit budget"):
            executor.run_plan(self._plan(40))

    def test_auto_routes_clifford_plan_to_tableau(self, monkeypatch):
        monkeypatch.setenv(ENV_MAX_DENSE_QUBITS, "20")
        executor = BreakpointExecutor(
            RunConfig(ensemble_size=8, seed=1, backend="auto"),
        )
        plan = self._plan(40)
        measurements = executor.run_plan(plan)
        assert len(measurements) == plan.num_breakpoints
        assert executor.statevector_gates_applied == 0
        assert plan.routing_note is not None
        assert "40 qubits" in plan.routing_note
        assert "20-qubit dense budget" in plan.routing_note
        assert "routing:" in plan.describe()

    @pytest.mark.parametrize("backend", ["auto", "hybrid"])
    @pytest.mark.parametrize("mode", ["sample", "rerun"])
    def test_clifford_plan_routes_to_tableau_in_every_mode(self, backend, mode):
        """Both Clifford-aware spellings read the plan's Clifford metadata in
        both modes, and every mode records the routing decision."""
        config = RunConfig(
            ensemble_size=4, seed=1, backend=backend, mode=mode, max_dense_qubits=8
        )
        executor = BreakpointExecutor(config)
        plan = self._plan(12)
        assert len(executor.run_plan(plan)) == plan.num_breakpoints
        assert executor.statevector_gates_applied == 0
        assert plan.routing_note == (
            "12 qubits exceed the 8-qubit dense budget; running on "
            "'stabilizer' (no dense allocation)"
        )

    def test_within_budget_dense_request_runs(self, monkeypatch):
        monkeypatch.setenv(ENV_MAX_DENSE_QUBITS, "20")
        executor = BreakpointExecutor(
            RunConfig(ensemble_size=4, seed=1, backend="statevector"),
        )
        plan = self._plan(8)
        assert len(executor.run_plan(plan)) == plan.num_breakpoints
        assert plan.routing_note is None

    def test_config_round_trip_carries_caps(self):
        config = RunConfig(max_dense_qubits=24, max_support=128)
        clone = RunConfig.from_dict(config.to_dict())
        assert clone.max_dense_qubits == 24
        assert clone.max_support == 128

    def test_config_caps_must_be_positive(self):
        with pytest.raises(ValueError):
            RunConfig(max_dense_qubits=0)
        with pytest.raises(ValueError):
            RunConfig(max_support=-1)
