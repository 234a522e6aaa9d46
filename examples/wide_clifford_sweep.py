#!/usr/bin/env python3
"""Checking 128-qubit Clifford programs on the big-int column tableau.

A dense statevector at 128 qubits would need ``2**128 x 16`` bytes — twenty
orders of magnitude beyond any machine — yet the stabilizer checker walks
the same breakpoint pipeline at that width in milliseconds: the column
tableau costs O(n^2 / 64) words, and the Clifford workloads keep asserted
groups narrow (chain ends, syndrome windows), so the sparse branching
readout never materialises a wide histogram.

The script shows the three width-frontier pieces working together:

1. the memory-aware router refusing a hopeless dense request and routing
   ``backend="auto"`` to the tableau (``ExecutionPlan.routing_note``);
2. the full detection/false-positive sweep at 128 qubits;
3. an importance-sampled rare-noise run (p = 1e-4) whose weighted ensemble
   carries a finite-variance error estimate at just 256 members.

Run with:  python examples/wide_clifford_sweep.py
"""

import time

import repro
from repro import RunConfig
from repro.compiler import BreakpointExecutor, build_execution_plan
from repro.sim import NoiseModel, depolarizing
from repro.workloads import build_ghz_chain_program, build_repetition_code_program
from repro.workloads.clifford import clifford_detection_sweep

WIDE_QUBITS = 128
SEED = 20190622


def main() -> None:
    # -- 1. the router: dense refusal, Clifford rerouting ---------------
    program = build_ghz_chain_program(WIDE_QUBITS)
    plan = build_execution_plan(program)

    try:
        dense = RunConfig(ensemble_size=8, seed=SEED, backend="statevector")
        BreakpointExecutor(dense).run_plan(plan)
    except ValueError as error:
        print("dense request refused before allocation:")
        print(f"  {error}\n")

    executor = BreakpointExecutor(
        RunConfig(ensemble_size=32, seed=SEED, backend="auto"),
    )
    start = time.perf_counter()
    executor.run_plan(plan)
    seconds = time.perf_counter() - start
    print(f"auto-routed {WIDE_QUBITS}-qubit walk in {seconds * 1e3:.1f} ms")
    print(f"  {plan.routing_note}\n")

    # -- 2. the checker sweep at the width frontier ---------------------
    start = time.perf_counter()
    rows = clifford_detection_sweep(
        widths=(WIDE_QUBITS,),
        trials=5,
        config=RunConfig(seed=SEED, backend="stabilizer", ensemble_size=32),
    )
    seconds = time.perf_counter() - start
    print(f"detection sweep at {WIDE_QUBITS} qubits ({seconds:.2f} s):")
    for row in rows:
        print(
            f"  {row['scenario']:<28} n={row['num_qubits']:<4} "
            f"detection={row['detection_rate']:.2f} "
            f"false_positive={row['false_positive_rate']:.2f}"
        )
    print()

    # -- 3. importance-sampled rare noise -------------------------------
    # At p = 1e-4 a 256-member plain ensemble usually sees zero error
    # events; boosting every channel draw to q = 0.05 and reweighting by
    # the likelihood ratio keeps the estimator unbiased while every member
    # carries signal.  The Kish effective sample size reports the cost.
    noisy = build_repetition_code_program(num_data=12)
    noise = NoiseModel.from_channels([depolarizing(1e-4)], importance_boost=0.02)
    noisy_executor = BreakpointExecutor(
        RunConfig(ensemble_size=256, seed=SEED, backend="stabilizer", noise=noise),
    )
    # Breakpoint 0 asserts the first syndrome window reads 0, so the
    # weighted mass on nonzero outcomes is the syndrome-firing probability.
    ensemble = noisy_executor.run_plan(build_execution_plan(noisy))[0].joint
    weighted = ensemble.weighted_frequencies()
    error_rate = 1.0 - weighted[0] / weighted.sum() if weighted.sum() else 0.0
    print("importance-sampled p=1e-4 run (256 members):")
    print(f"  weighted error estimate : {error_rate:.2e}")
    print(f"  effective sample size   : {ensemble.effective_sample_size():.1f}")

    # A session sees the same knobs through RunConfig.
    report = repro.session(
        RunConfig(seed=SEED, backend="stabilizer", ensemble_size=32)
    ).check(build_ghz_chain_program(WIDE_QUBITS))
    print(f"\nsession check at {WIDE_QUBITS} qubits: passed={report.passed}")


if __name__ == "__main__":
    main()
