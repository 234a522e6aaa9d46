"""Stabilizer-tableau benchmark: Clifford prefixes beyond statevector reach.

Three experiments, appended to ``BENCH_stabilizer.json`` in the repo root:

* **Tableau vs statevector** on the Clifford breakpoint workloads (GHZ
  chain, teleportation, repetition code) at a statevector-feasible width:
  identical checker verdicts under a fixed seed, with both engines' gate
  counts and wall-clock recorded.
* **Deep stabilizer-only runs** at 24–48 qubits — widths where a dense
  statevector would need gigabytes — showing the full checker pipeline
  completing with the correct verdicts (correct program passes, buggy
  variant caught) and sub-second tableau walks.
* **Hybrid vs pure statevector** on the Shor breakpoint workload:
  ``backend="auto"`` walks the Clifford prefix on the tableau and converts
  to a statevector at the first non-Clifford gate, producing verdict- and
  ensemble-identical results under the same seed while applying strictly
  fewer statevector gate operations.

Run standalone with ``python benchmarks/bench_stabilizer.py [--smoke]`` (the
CI smoke mode shrinks widths/ensembles, same assertions), or under
pytest-benchmark like the other benchmarks.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from bench_helpers import append_trajectory, print_table
from repro.algorithms.shor import build_shor_program
from repro.compiler import BreakpointExecutor, build_execution_plan
from repro.core import DEFAULT_SIGNIFICANCE, RunConfig, build_evaluator
from repro.workloads import CLIFFORD_SCENARIOS

SEED = 20190622
TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_stabilizer.json"


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


def _timed_plan_run(plan, backend: str, ensemble_size: int) -> tuple[dict, list[bool]]:
    executor = BreakpointExecutor(
        RunConfig(ensemble_size=ensemble_size, seed=SEED, backend=backend),
    )
    start = time.perf_counter()
    measurements = executor.run_plan(plan)
    seconds = time.perf_counter() - start
    row = {
        "backend": backend,
        "gates": executor.gates_applied,
        "statevector_gates": executor.statevector_gates_applied,
        "seconds": seconds,
    }
    return row, _verdicts(measurements)


def _clifford_vs_statevector_rows(ensemble_size: int) -> list[dict]:
    """Both engines on the moderate-width Clifford workloads, verdict-matched."""
    rows = []
    for name, scenario in sorted(CLIFFORD_SCENARIOS.items()):
        for variant, build in (
            ("correct", scenario.build_correct),
            ("buggy", scenario.build_buggy),
        ):
            plan = build_execution_plan(build(scenario.moderate_qubits))
            tableau, tableau_verdicts = _timed_plan_run(
                plan, "stabilizer", ensemble_size
            )
            dense, dense_verdicts = _timed_plan_run(
                plan, "statevector", ensemble_size
            )
            rows.append(
                {
                    "workload": name,
                    "variant": variant,
                    "num_qubits": scenario.moderate_qubits,
                    "tableau_seconds": tableau["seconds"],
                    "statevector_seconds": dense["seconds"],
                    "tableau_sv_gates": tableau["statevector_gates"],
                    "verdicts_match": tableau_verdicts == dense_verdicts,
                    "all_pass": all(tableau_verdicts),
                }
            )
    return rows


def _deep_rows(widths, ensemble_size: int) -> list[dict]:
    """Stabilizer-only checker runs at widths no dense backend can hold."""
    rows = []
    for name, scenario in sorted(CLIFFORD_SCENARIOS.items()):
        for width in widths:
            plan_ok = build_execution_plan(scenario.build_correct(width))
            plan_bad = build_execution_plan(scenario.build_buggy(width))
            ok_row, ok_verdicts = _timed_plan_run(plan_ok, "stabilizer", ensemble_size)
            bad_row, bad_verdicts = _timed_plan_run(
                plan_bad, "stabilizer", ensemble_size
            )
            rows.append(
                {
                    "workload": name,
                    "num_qubits": width,
                    "correct_seconds": ok_row["seconds"],
                    "buggy_seconds": bad_row["seconds"],
                    "correct_passes": all(ok_verdicts),
                    "bug_caught": not all(bad_verdicts),
                    "statevector_gates": ok_row["statevector_gates"],
                }
            )
    return rows


def _hybrid_rows(ensemble_size: int) -> list[dict]:
    """backend="auto" vs pure statevector on the Shor breakpoint workload."""
    circuit = build_shor_program(assert_each_iteration=True)
    plan = build_execution_plan(circuit.program)

    hybrid = BreakpointExecutor(
        RunConfig(ensemble_size=ensemble_size, seed=SEED, backend="auto"),
    )
    start = time.perf_counter()
    hybrid_measurements = hybrid.run_plan(plan)
    hybrid_seconds = time.perf_counter() - start

    dense = BreakpointExecutor(
        RunConfig(ensemble_size=ensemble_size, seed=SEED, backend="statevector"),
    )
    start = time.perf_counter()
    dense_measurements = dense.run_plan(plan)
    dense_seconds = time.perf_counter() - start

    ensembles_identical = all(
        list(a.joint.samples) == list(b.joint.samples)
        for a, b in zip(hybrid_measurements, dense_measurements)
    )
    return [
        {
            "workload": "shor_breakpoints",
            "num_breakpoints": plan.num_breakpoints,
            "clifford_prefix_gates": plan.clifford_prefix_gates,
            "hybrid_sv_gates": hybrid.statevector_gates_applied,
            "statevector_sv_gates": dense.statevector_gates_applied,
            "sv_gates_saved": dense.statevector_gates_applied
            - hybrid.statevector_gates_applied,
            "hybrid_seconds": hybrid_seconds,
            "statevector_seconds": dense_seconds,
            "verdicts_match": _verdicts(hybrid_measurements)
            == _verdicts(dense_measurements),
            "ensembles_identical": ensembles_identical,
            "all_assertions_pass": all(_verdicts(hybrid_measurements)),
        }
    ]


def _run_benchmark(ensemble_size: int, deep_widths) -> dict:
    return {
        "ensemble_size": ensemble_size,
        "clifford_vs_statevector": _clifford_vs_statevector_rows(ensemble_size),
        "deep_stabilizer": _deep_rows(deep_widths, ensemble_size),
        "hybrid_shor": _hybrid_rows(ensemble_size),
    }


def _check_and_report(entry: dict) -> None:
    print_table(
        "Tableau vs statevector: Clifford workloads",
        entry["clifford_vs_statevector"],
    )
    print_table("Deep stabilizer-only checker runs", entry["deep_stabilizer"])
    print_table("Hybrid (auto) vs statevector: Shor breakpoints", entry["hybrid_shor"])
    append_trajectory(TRAJECTORY_PATH, entry)

    for row in entry["clifford_vs_statevector"]:
        # Seeded verdict identity between tableau and dense engine, and the
        # tableau never touching a dense representation.
        assert row["verdicts_match"], row
        assert row["tableau_sv_gates"] == 0, row
        assert row["all_pass"] == (row["variant"] == "correct"), row
    for row in entry["deep_stabilizer"]:
        # >= 24-qubit Clifford workloads: correct verdicts beyond dense reach.
        assert row["correct_passes"], row
        assert row["bug_caught"], row
        assert row["statevector_gates"] == 0, row
    for row in entry["hybrid_shor"]:
        assert row["verdicts_match"], row
        assert row["ensembles_identical"], row
        assert row["all_assertions_pass"], row
        # The headline hybrid claim: strictly fewer statevector gate ops.
        assert row["hybrid_sv_gates"] < row["statevector_sv_gates"], row


def test_stabilizer_benchmark(benchmark):
    entry = benchmark.pedantic(
        lambda: _run_benchmark(ensemble_size=32, deep_widths=(24, 32, 48)),
        rounds=1,
        iterations=1,
    )
    _check_and_report(entry)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke mode: smaller ensembles and fewer deep widths, "
        "same assertions",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        entry = _run_benchmark(ensemble_size=16, deep_widths=(24,))
    else:
        entry = _run_benchmark(ensemble_size=32, deep_widths=(24, 32, 48))
    _check_and_report(entry)
    print("\nbench_stabilizer: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
