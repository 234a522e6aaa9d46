"""Noise-sweep benchmark: one density-matrix plan walk vs per-member corruption.

Before this backend existed, a noisy readout sweep re-simulated the program
once per ensemble member (``mode="rerun"``) and stochastically corrupted each
drawn sample — O(legacy_gates x ensemble) gate applications per checking run.
The density backend carries the readout channel natively: a **single**
incremental walk of the execution plan yields the exact noisy distribution at
every breakpoint, so the whole sweep costs O(total_gates) per error rate.

Three sweeps are reproduced and appended to ``BENCH_density.json`` in the
repo root:

* a readout-error sweep (p in {0, 0.01, 0.05}) on the Table 1 adder workload,
  timing the single density walk against legacy per-member corruption;
* detection/false-positive rates over the same sweep via
  ``repro.workloads.readout_error_sweep``;
* a gate-noise (depolarizing Kraus channel) sweep on the Bell pair showing
  the entanglement assertion's p-value degrade as the channel strengthens.

Run standalone with ``python benchmarks/bench_density_noise.py [--smoke]``
(the CI smoke mode shrinks ensembles/trials), or under pytest-benchmark like
the other benchmarks.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from bench_helpers import append_trajectory, print_table
from repro.bugs import BUG_SCENARIOS
from repro.compiler import BreakpointExecutor, build_execution_plan
from repro.core import DEFAULT_SIGNIFICANCE, build_evaluator, check_program
from repro import RunConfig
from repro.lang import Program
from repro.sim import DensityMatrixBackend, NoiseModel, ReadoutErrorModel, depolarizing
from repro.workloads import readout_error_sweep

SEED = 20190622
READOUT_RATES = (0.0, 0.01, 0.05)
DEPOLARIZING_RATES = (0.0, 0.1, 0.4)
TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_density.json"


def _bell_program() -> Program:
    program = Program("bell")
    q = program.qreg("q", 2)
    program.h(q[0])
    program.cnot(q[0], q[1])
    program.assert_entangled([q[0]], [q[1]], label="pair")
    return program


def _verdicts(measurements) -> list[bool]:
    verdicts = []
    for item in measurements:
        evaluator = build_evaluator(item.breakpoint.assertion, DEFAULT_SIGNIFICANCE)
        if item.group_b is None:
            outcome = evaluator.evaluate(item.group_a)
        else:
            outcome = evaluator.evaluate(item.group_a, item.group_b)
        verdicts.append(outcome.passed)
    return verdicts


def _readout_walk_rows(ensemble_size: int) -> list[dict]:
    """Single exact density walk vs legacy per-member corrupted re-simulation."""
    scenario = BUG_SCENARIOS["flipped_rotation_angles"]
    plan = build_execution_plan(scenario.build_correct())
    rows = []
    for rate in READOUT_RATES:
        model = ReadoutErrorModel(p01=rate, p10=rate)

        density = BreakpointExecutor(
            RunConfig(
                ensemble_size=ensemble_size,
                seed=SEED,
                readout_error=model,
                backend="density",
            ),
        )
        start = time.perf_counter()
        density_measurements = density.run_plan(plan)
        density_seconds = time.perf_counter() - start

        legacy = BreakpointExecutor(
            RunConfig(
                ensemble_size=ensemble_size,
                seed=SEED,
                readout_error=model,
                backend="statevector",
                mode="rerun",
            ),
        )
        start = time.perf_counter()
        legacy_measurements = legacy.run_plan(plan)
        legacy_seconds = time.perf_counter() - start

        rows.append(
            {
                "workload": "adder_table1",
                "readout_error": rate,
                "ensemble_size": ensemble_size,
                "density_gates": density.gates_applied,
                "legacy_gates": legacy.gates_applied,
                "gate_speedup": legacy.gates_applied / max(density.gates_applied, 1),
                "density_seconds": density_seconds,
                "legacy_seconds": legacy_seconds,
                "density_all_pass": all(_verdicts(density_measurements)),
                "legacy_all_pass": all(_verdicts(legacy_measurements)),
            }
        )
    return rows


def _detection_rows(ensemble_size: int, trials: int) -> list[dict]:
    scenario = BUG_SCENARIOS["flipped_rotation_angles"]
    rows = readout_error_sweep(
        scenario.build_correct,
        scenario.build_buggy,
        error_rates=READOUT_RATES,
        trials=trials,
        config=RunConfig(ensemble_size=ensemble_size, seed=SEED, backend="density"),
    )
    return [{"workload": "adder_table1", **row} for row in rows]


def _gate_noise_rows(ensemble_size: int) -> list[dict]:
    """Entanglement assertion p-value as per-gate depolarizing noise grows."""
    rows = []
    for rate in DEPOLARIZING_RATES:
        if rate > 0.0:
            noise = NoiseModel.from_channels(depolarizing(rate))
            backend = lambda: DensityMatrixBackend(noise=noise)  # noqa: E731
        else:
            backend = "density"
        report = check_program(
            _bell_program(),
            RunConfig(ensemble_size=ensemble_size, seed=SEED, backend=backend),
        )
        record = report.records[0]
        rows.append(
            {
                "workload": "bell_entangled",
                "depolarizing_p": rate,
                "ensemble_size": ensemble_size,
                "p_value": record.outcome.p_value,
                "passed": record.outcome.passed,
            }
        )
    return rows


def _noiseless_verdicts_match() -> bool:
    """Density and statevector backends agree verdict-for-verdict at p = 0."""
    for scenario in BUG_SCENARIOS.values():
        for build in (scenario.build_correct, scenario.build_buggy):
            program = build()
            size = scenario.ensemble_size or 16
            statevector = check_program(program, RunConfig(ensemble_size=size, seed=SEED, backend="statevector"))
            density = check_program(program, RunConfig(ensemble_size=size, seed=SEED, backend="density"))
            if [r.outcome.passed for r in statevector.records] != [
                r.outcome.passed for r in density.records
            ]:
                return False
    return True


def _run_sweeps(ensemble_size: int, trials: int) -> dict:
    walk_rows = _readout_walk_rows(ensemble_size)
    detection_rows = _detection_rows(ensemble_size, trials)
    gate_noise_rows = _gate_noise_rows(max(ensemble_size, 64))
    return {
        "ensemble_size": ensemble_size,
        "trials": trials,
        "readout_walk": walk_rows,
        "detection": detection_rows,
        "gate_noise": gate_noise_rows,
        "noiseless_verdicts_match": _noiseless_verdicts_match(),
    }


def _check_and_report(entry: dict) -> None:
    print_table("Single density walk vs per-member corruption", entry["readout_walk"])
    print_table("Detection under readout error (density backend)", entry["detection"])
    print_table("Entanglement p-value under depolarizing noise", entry["gate_noise"])
    append_trajectory(TRAJECTORY_PATH, entry)

    assert entry["noiseless_verdicts_match"]
    # Reference: one noiseless statevector walk of the same plan (prep-induced
    # X flips count into gates_applied on top of plan.total_gates).
    plan = build_execution_plan(
        BUG_SCENARIOS["flipped_rotation_angles"].build_correct()
    )
    reference = BreakpointExecutor(
        RunConfig(
            ensemble_size=entry["ensemble_size"],
            seed=SEED,
            backend="statevector",
        ),
    )
    reference.run_plan(plan)
    for row in entry["readout_walk"]:
        # A noisy density sweep costs exactly one noiseless plan walk...
        assert row["density_gates"] == reference.gates_applied
        # ...while the legacy path pays per ensemble member.
        assert row["legacy_gates"] >= row["ensemble_size"] * plan.legacy_gates
        assert row["gate_speedup"] >= row["ensemble_size"]
    # Noiseless limit: both engines accept the correct adder.
    assert entry["readout_walk"][0]["density_all_pass"]
    assert entry["readout_walk"][0]["legacy_all_pass"]
    for row in entry["detection"]:
        assert row["detection_rate"] >= 0.9  # a fully classical defect stays caught
    # The strict classical assertion is readout-noise brittle (any flipped bit
    # drives its p-value to 0), so the false-positive rate climbing with the
    # error rate is the expected — and recorded — ablation result.
    # The Bell pair passes clean; depolarising noise washes out the
    # correlation, so the independence-test p-value climbs with the rate.
    gate_noise = entry["gate_noise"]
    assert gate_noise[0]["passed"]
    assert gate_noise[-1]["p_value"] >= gate_noise[0]["p_value"]


def test_density_noise_sweep(benchmark):
    entry = benchmark.pedantic(
        lambda: _run_sweeps(ensemble_size=32, trials=10), rounds=1, iterations=1
    )
    _check_and_report(entry)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke mode: smaller ensembles/trials, same assertions",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        entry = _run_sweeps(ensemble_size=16, trials=3)
    else:
        entry = _run_sweeps(ensemble_size=32, trials=10)
    _check_and_report(entry)
    print("\nbench_density_noise: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
