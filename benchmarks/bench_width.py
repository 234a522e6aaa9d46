"""Width-frontier benchmark: the big-int column tableau engine at 128 qubits.

Four experiments, appended to ``BENCH_width.json`` in the repo root:

* **Column-engine throughput** — the same Clifford op stream applied
  through the big-int column ``_Tableau`` (one arbitrary-width integer per
  qubit column, bit ``i`` = row ``i``) and the one-byte-per-bit reference
  ``_UnpackedTableau`` at n=128, with gate-op throughput and the
  column/reference speedup recorded.  The JSON keeps its historical
  ``packed_*`` row keys (``packed`` = the column engine).  The headline
  claim is a >= 10x speedup at 128 qubits.
* **Wide checker sweep** — the full Clifford detection/false-positive sweep
  at each scenario's ``wide_qubits`` width (128 by default): every bug
  caught, no false positives, at a width far beyond any dense budget.
* **Cross-backend verdict identity** — the moderate-width (<= 48 qubit)
  scenario matrix run under one seed on ``stabilizer``, ``statevector`` and
  ``auto``: identical verdicts everywhere, and identical sample streams
  between the two tableau-sampled routes.
* **Importance-sampled rare noise** — a p=1e-4 depolarizing workload run
  with and without ``NoiseModel.importance_boost`` at equal ensemble size;
  the empirical standard error of the error-rate estimate must shrink to
  <= 0.5x the plain-sampling SE (it typically shrinks far more).

Run standalone with ``python benchmarks/bench_width.py [--smoke]`` (the CI
smoke mode shrinks repeat counts and relaxes the timing floor — timing on
shared CI runners is noisy — but keeps every correctness assertion), or
under pytest-benchmark like the other benchmarks.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from bench_helpers import append_trajectory, print_table
from repro.compiler import BreakpointExecutor, build_execution_plan
from repro.core import DEFAULT_SIGNIFICANCE, RunConfig, build_evaluator
from repro.sim.noise import NoiseModel, depolarizing
from repro.sim.stabilizer_backend import _Tableau, _UnpackedTableau
from repro.workloads import CLIFFORD_SCENARIOS
from repro.workloads.clifford import clifford_detection_sweep

SEED = 20190622
TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_width.json"

WIDE_QUBITS = 128


# ----------------------------------------------------------------------
# Experiment 1: column engine vs unpacked reference throughput
# ----------------------------------------------------------------------


def _op_stream(num_qubits: int, ops_per_round: int, rng: np.random.Generator):
    """A realistic random Clifford op word over all ``num_qubits`` slots."""
    ops = []
    names_1q = ("h", "s", "x", "z")
    names_2q = ("cx", "cz", "swap")
    for _ in range(ops_per_round):
        if rng.random() < 0.5:
            ops.append((names_1q[rng.integers(len(names_1q))], int(rng.integers(num_qubits))))
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            ops.append((names_2q[rng.integers(len(names_2q))], int(a), int(b)))
    return ops


def _throughput(tableau, ops, qubits, rounds: int) -> float:
    start = time.perf_counter()
    for _ in range(rounds):
        tableau.apply_ops(ops, qubits)
    seconds = time.perf_counter() - start
    return len(ops) * rounds / seconds


def _throughput_rows(num_qubits: int, ops_per_round: int, rounds: int) -> list[dict]:
    rng = np.random.default_rng(SEED)
    ops = _op_stream(num_qubits, ops_per_round, rng)
    qubits = list(range(num_qubits))

    packed = _Tableau(num_qubits)
    unpacked = _UnpackedTableau(num_qubits)
    packed_ops_per_sec = _throughput(packed, ops, qubits, rounds)
    unpacked_ops_per_sec = _throughput(unpacked, ops, qubits, rounds)

    # Both engines walked the identical op stream: their states must agree.
    outcomes_match = all(
        packed.deterministic_outcome(q) == unpacked.deterministic_outcome(q)
        for q in range(num_qubits)
    )
    return [
        {
            "num_qubits": num_qubits,
            "gate_ops": len(ops) * rounds,
            "packed_ops_per_sec": packed_ops_per_sec,
            "unpacked_ops_per_sec": unpacked_ops_per_sec,
            "speedup": packed_ops_per_sec / unpacked_ops_per_sec,
            "outcomes_match": outcomes_match,
        }
    ]


# ----------------------------------------------------------------------
# Experiment 2: the checker sweep at the 128-qubit width frontier
# ----------------------------------------------------------------------


def _wide_sweep_rows(trials: int) -> list[dict]:
    widths = sorted({s.wide_qubits for s in CLIFFORD_SCENARIOS.values()})
    config = RunConfig(seed=SEED, backend="stabilizer", ensemble_size=32)
    return clifford_detection_sweep(widths=widths, trials=trials, config=config)


# ----------------------------------------------------------------------
# Experiment 3: cross-backend seeded verdict identity (<= 48 qubits)
# ----------------------------------------------------------------------


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


def _cross_backend_rows(ensemble_size: int) -> list[dict]:
    rows = []
    for name, scenario in sorted(CLIFFORD_SCENARIOS.items()):
        for variant, build in (
            ("correct", scenario.build_correct),
            ("buggy", scenario.build_buggy),
        ):
            plan = build_execution_plan(build(scenario.moderate_qubits))
            runs = {}
            for backend in ("stabilizer", "statevector", "auto"):
                executor = BreakpointExecutor(
                    RunConfig(ensemble_size=ensemble_size, seed=SEED, backend=backend),
                )
                runs[backend] = executor.run_plan(plan)
            verdicts = {b: _verdicts(m) for b, m in runs.items()}
            # The two tableau-sampled routes must agree byte for byte.
            samples_identical = all(
                list(a.joint.samples) == list(b.joint.samples)
                for a, b in zip(runs["stabilizer"], runs["auto"])
            )
            rows.append(
                {
                    "workload": name,
                    "variant": variant,
                    "num_qubits": scenario.moderate_qubits,
                    "verdicts_match": len({tuple(v) for v in verdicts.values()}) == 1,
                    "tableau_samples_identical": samples_identical,
                    "all_pass": all(verdicts["stabilizer"]),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Experiment 4: importance-sampled rare-event noise (p = 1e-4)
# ----------------------------------------------------------------------


def _noisy_error_program(gates: int):
    from repro.lang.program import Program

    program = Program("rare_noise_probe")
    register = program.qreg("q", 1)
    program.prep_z(register[0], 0)
    for _ in range(gates // 2):
        program.x(register[0])
        program.x(register[0])
    program.assert_classical([register[0]], 0, label="still |0> under noise")
    program.measure(register, label="m")
    return program


def _error_rate_estimate(plan, noise, ensemble_size: int, seed: int) -> float:
    executor = BreakpointExecutor(
        RunConfig(
            ensemble_size=ensemble_size,
            seed=seed,
            backend="stabilizer",
            noise=noise,
        ),
    )
    ensemble = executor.run_plan(plan)[0].joint
    weights = ensemble.weights
    if weights is None:
        weights = [1.0] * len(ensemble.samples)
    total = sum(weights)
    hit = sum(w for w, s in zip(weights, ensemble.samples) if s != 0)
    return hit / total


def _importance_rows(
    p: float, gates: int, ensemble_size: int, repetitions: int
) -> list[dict]:
    plan = build_execution_plan(_noisy_error_program(gates))
    # Boost sized so the expected error events per member is O(1).
    boost = min(2.0 / gates, 0.5)
    plain_noise = NoiseModel.from_channels([depolarizing(p)])
    boosted_noise = NoiseModel.from_channels(
        [depolarizing(p)], importance_boost=boost
    )
    plain = [
        _error_rate_estimate(plan, plain_noise, ensemble_size, SEED + rep)
        for rep in range(repetitions)
    ]
    boosted = [
        _error_rate_estimate(plan, boosted_noise, ensemble_size, SEED + rep)
        for rep in range(repetitions)
    ]
    plain_se = float(np.std(plain, ddof=1))
    boosted_se = float(np.std(boosted, ddof=1))
    return [
        {
            "p": p,
            "gates": gates,
            "importance_boost": boost,
            "ensemble_size": ensemble_size,
            "repetitions": repetitions,
            "plain_mean": float(np.mean(plain)),
            "boosted_mean": float(np.mean(boosted)),
            "plain_se": plain_se,
            "boosted_se": boosted_se,
            "se_ratio": boosted_se / plain_se if plain_se else float("inf"),
        }
    ]


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


def _run_benchmark(
    ops_per_round: int,
    rounds: int,
    sweep_trials: int,
    cross_ensemble: int,
    is_members: int,
    is_repetitions: int,
) -> dict:
    return {
        "wide_qubits": WIDE_QUBITS,
        "packed_throughput": _throughput_rows(WIDE_QUBITS, ops_per_round, rounds),
        "wide_checker_sweep": _wide_sweep_rows(sweep_trials),
        "cross_backend": _cross_backend_rows(cross_ensemble),
        "importance_sampling": _importance_rows(
            1e-4, 50, is_members, is_repetitions
        ),
    }


def _check_and_report(entry: dict, min_speedup: float) -> None:
    print_table("Column vs unpacked tableau @ 128 qubits", entry["packed_throughput"])
    print_table("Clifford checker sweep @ width frontier", entry["wide_checker_sweep"])
    print_table("Cross-backend seeded verdicts (<= 48q)", entry["cross_backend"])
    print_table("Importance-sampled p=1e-4 noise", entry["importance_sampling"])
    append_trajectory(TRAJECTORY_PATH, entry)

    for row in entry["packed_throughput"]:
        assert row["outcomes_match"], row
        assert row["speedup"] >= min_speedup, row
    for row in entry["wide_checker_sweep"]:
        # 128-qubit registers: every bug caught, no spurious failures.
        assert row["num_qubits"] >= 100, row
        assert row["detection_rate"] == 1.0, row
        assert row["false_positive_rate"] == 0.0, row
    for row in entry["cross_backend"]:
        assert row["verdicts_match"], row
        assert row["tableau_samples_identical"], row
        assert row["all_pass"] == (row["variant"] == "correct"), row
    for row in entry["importance_sampling"]:
        # The acceptance bar: half the plain-sampling standard error at
        # equal members (the measured ratio is usually far below 0.5).
        assert row["boosted_se"] <= 0.5 * row["plain_se"], row
        # Both estimators target the same rate; the boosted mean must sit
        # within a few plain-sampling SEs of the plain mean.
        assert (
            abs(row["boosted_mean"] - row["plain_mean"]) <= 4.0 * row["plain_se"]
        ), row


def test_width_benchmark(benchmark):
    entry = benchmark.pedantic(
        lambda: _run_benchmark(
            ops_per_round=2000,
            rounds=5,
            sweep_trials=5,
            cross_ensemble=32,
            is_members=256,
            is_repetitions=24,
        ),
        rounds=1,
        iterations=1,
    )
    _check_and_report(entry, min_speedup=10.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke mode: fewer repeats and a relaxed timing floor, "
        "same correctness assertions",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        entry = _run_benchmark(
            ops_per_round=500,
            rounds=2,
            sweep_trials=2,
            cross_ensemble=16,
            is_members=256,
            is_repetitions=8,
        )
        _check_and_report(entry, min_speedup=4.0)
    else:
        entry = _run_benchmark(
            ops_per_round=2000,
            rounds=5,
            sweep_trials=5,
            cross_ensemble=32,
            is_members=256,
            is_repetitions=24,
        )
        _check_and_report(entry, min_speedup=10.0)
    print("\nbench_width: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
