"""Trajectory noise engine benchmark: full-scale gate-noise sweeps.

The density-matrix backend densifies on the first Kraus application, so a
per-gate noise sweep on the 13-qubit Shor breakpoint workload would need a
``4^13`` complex density matrix (~1 GiB) and ``4^n`` work per gate — the top
open scalability item in ROADMAP.md.  The trajectory engine unravels Pauli
channels into Monte-Carlo trajectories batched as a ``(B, 2^n)`` statevector
stack (a few MiB), walked **once** per checking run by the incremental
executor; on deep Clifford workloads the same noise rides tableau Pauli
frames at 24–48 qubits.

Three experiment families are reproduced and appended to
``BENCH_trajectory.json`` in the repo root:

* **agreement** — at <= 8 qubits, where the density backend can still compute
  the *exact* noisy breakpoint distribution, seeded trajectory ensembles must
  match it (chi-square goodness of fit per breakpoint);
* **scale** — the per-gate depolarizing sweep on the 13-qubit Shor breakpoint
  workload completes on the trajectory backend, with the measured memory and
  per-gate work advantage over the (infeasible) density path recorded and
  asserted >= 10x;
* **deep Clifford** — the same sweep at 24+ qubits on tableau Pauli frames,
  where even a statevector trajectory could not run.

Run standalone with ``python benchmarks/bench_trajectory.py [--smoke]`` (CI
smoke mode shrinks ensembles/trials), or under pytest-benchmark like the
other benchmarks.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from bench_helpers import append_trajectory, print_table
from repro import RunConfig
from repro.bugs import BUG_SCENARIOS
from repro.compiler import BreakpointExecutor, build_execution_plan
from repro.core import DEFAULT_SIGNIFICANCE, build_evaluator, chi_square_gof
from repro.lang.program import run_instructions
from repro.sim import DensityMatrixBackend, NoiseModel, depolarizing
from repro.workloads import build_shor_noise_workload, clifford_gate_noise_sweep

SEED = 20190622
AGREEMENT_RATE = 0.05
SHOR_RATES = (0.0, 1e-4, 1e-3)
TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_trajectory.json"

#: Small-n bug-catalog workloads where the density backend can still produce
#: the exact noisy distribution to compare trajectory ensembles against.
AGREEMENT_SCENARIOS = ("wrong_initial_value", "flipped_rotation_angles")


def _density_exact_distributions(program, noise: NoiseModel) -> list:
    """Exact noisy distribution at every breakpoint via one density walk."""
    plan = build_execution_plan(program)
    engine = DensityMatrixBackend(noise=noise).initialize(program.num_qubits)
    distributions = []
    for segment in plan.segments:
        run_instructions(program, segment.instructions, engine, rng=SEED)
        indices = [program.qubit_index(q) for q in segment.assertion.qubits()]
        distributions.append((segment.name, indices, engine.probabilities(indices)))
    return distributions


def _agreement_rows(ensemble_size: int) -> list[dict]:
    """Trajectory ensembles vs density-exact distributions at small n."""
    noise = NoiseModel.from_channels(depolarizing(AGREEMENT_RATE))
    rows = []
    for name in AGREEMENT_SCENARIOS:
        program = BUG_SCENARIOS[name].build_correct()
        exact = _density_exact_distributions(program, noise)
        executor = BreakpointExecutor(
            RunConfig(
                ensemble_size=ensemble_size,
                seed=SEED,
                backend="trajectory",
                noise=noise,
            ),
        )
        measurements = executor.run_plan(build_execution_plan(program))
        for (segment_name, _, distribution), item in zip(exact, measurements):
            result = chi_square_gof(item.joint.samples, distribution)
            rows.append(
                {
                    "workload": name,
                    "breakpoint": segment_name,
                    "num_qubits": program.num_qubits,
                    "ensemble_size": ensemble_size,
                    "chi2_p_value": result.p_value,
                    "agree": result.p_value >= 0.001,
                }
            )
    return rows


def _shor_verdicts(measurements) -> list[bool]:
    verdicts = []
    for item in measurements:
        evaluator = build_evaluator(item.breakpoint.assertion, DEFAULT_SIGNIFICANCE)
        if item.group_b is None:
            outcome = evaluator.evaluate(item.group_a)
        else:
            outcome = evaluator.evaluate(item.group_a, item.group_b)
        verdicts.append(outcome.passed)
    return verdicts


def _scale_rows(ensemble_size: int, rates) -> list[dict]:
    """Per-gate depolarizing sweep on the 13-qubit Shor breakpoint workload."""
    program = build_shor_noise_workload(buggy=False)
    buggy = build_shor_noise_workload(buggy=True)
    plan = build_execution_plan(program)
    buggy_plan = build_execution_plan(buggy)
    num_qubits = program.num_qubits
    density_bytes = 16 * (4 ** num_qubits)
    trajectory_bytes = 16 * ensemble_size * (2 ** num_qubits)
    rows = []
    for rate in rates:
        noise = NoiseModel.from_channels(depolarizing(rate)) if rate > 0 else None
        executor = BreakpointExecutor(
            RunConfig(
                ensemble_size=ensemble_size,
                seed=SEED,
                backend="trajectory",
                noise=noise,
            ),
        )
        start = time.perf_counter()
        measurements = executor.run_plan(plan)
        seconds = time.perf_counter() - start
        buggy_executor = BreakpointExecutor(
            RunConfig(
                ensemble_size=ensemble_size,
                seed=SEED,
                backend="trajectory",
                noise=noise,
            ),
        )
        buggy_verdicts = _shor_verdicts(buggy_executor.run_plan(buggy_plan))
        rows.append(
            {
                "workload": "shor_13q_breakpoints",
                "num_qubits": num_qubits,
                "gate_error": rate,
                "ensemble_size": ensemble_size,
                "walk_seconds": seconds,
                "gates_applied": executor.gates_applied,
                "correct_all_pass": all(_shor_verdicts(measurements)),
                "buggy_detected": not all(buggy_verdicts),
                "trajectory_bytes": trajectory_bytes,
                "density_bytes": density_bytes,
                "memory_advantage": density_bytes / trajectory_bytes,
                # Per-gate work: two-sided 4^n kernel sweeps on rho vs one
                # batched 2^n sweep per member.
                "work_advantage": (4 ** num_qubits) / (
                    ensemble_size * (2 ** num_qubits)
                ),
            }
        )
    return rows


def _deep_clifford_rows(widths, trials: int) -> tuple[list[dict], float]:
    """Noisy detection at 24–48 qubits on tableau Pauli frames."""
    start = time.perf_counter()
    rows = clifford_gate_noise_sweep(
        widths=widths,
        error_rates=(0.0, 0.005),
        trials=trials,
        config=RunConfig(ensemble_size=32, seed=SEED, backend="stabilizer"),
    )
    seconds = time.perf_counter() - start
    for row in rows:
        row["workload"] = "clifford_frames"
    return rows, seconds


def _run_sweeps(ensemble_size: int, agreement_ensemble: int, widths, trials) -> dict:
    clifford_rows, clifford_seconds = _deep_clifford_rows(widths, trials)
    return {
        "ensemble_size": ensemble_size,
        "agreement": _agreement_rows(agreement_ensemble),
        "scale": _scale_rows(ensemble_size, SHOR_RATES),
        "deep_clifford": clifford_rows,
        "deep_clifford_seconds": clifford_seconds,
    }


def _check_and_report(entry: dict) -> None:
    print_table("Trajectory vs density-exact agreement (chi-square)", entry["agreement"])
    print_table("13-qubit Shor per-gate depolarizing sweep", entry["scale"])
    print_table("Deep Clifford Pauli-frame sweep", entry["deep_clifford"])
    append_trajectory(TRAJECTORY_PATH, entry)

    # (a) seeded trajectory ensembles match the density-exact distributions.
    assert entry["agreement"], "agreement experiment produced no rows"
    for row in entry["agreement"]:
        assert row["agree"], (
            f"trajectory ensemble diverged from density-exact distribution "
            f"at {row['workload']}/{row['breakpoint']} (p={row['chi2_p_value']:.2e})"
        )
    # (b) the sweep completes at full Shor width with a >= 10x memory/work
    # advantage over the density path (which at 13 qubits would hold a ~1 GiB
    # rho and do 4^13 work per gate — infeasible in this harness).
    assert entry["scale"], "scale experiment produced no rows"
    for row in entry["scale"]:
        assert row["num_qubits"] >= 11
        assert row["memory_advantage"] >= 10.0
        assert row["work_advantage"] >= 10.0
        assert row["buggy_detected"], "wrong-inverse bug must stay detected"
    noiseless = entry["scale"][0]
    assert noiseless["gate_error"] == 0.0
    assert noiseless["correct_all_pass"], "noiseless Shor walk must pass"
    # (c) deep Clifford trajectories stay exact detectors in the noiseless
    # limit and keep catching the broken link under gate noise.
    clifford_rows = entry["deep_clifford"]
    assert clifford_rows, "deep Clifford experiment produced no rows"
    for row in clifford_rows:
        assert row["num_qubits"] >= 24
        assert row["detection_rate"] == 1.0
        if row["gate_error"] == 0.0:
            assert row["false_positive_rate"] == 0.0


def test_trajectory_noise_sweep(benchmark):
    entry = benchmark.pedantic(
        lambda: _run_sweeps(
            ensemble_size=16, agreement_ensemble=512, widths=(24, 32, 48), trials=3
        ),
        rounds=1,
        iterations=1,
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
        entry = _run_sweeps(
            ensemble_size=8, agreement_ensemble=256, widths=(24,), trials=2
        )
    else:
        entry = _run_sweeps(
            ensemble_size=16, agreement_ensemble=512, widths=(24, 32, 48), trials=3
        )
    _check_and_report(entry)
    print("\nbench_trajectory: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
