"""Listing 1: the QFT unit-test harness (classical -> superposition -> classical).

Reproduces the assertion chain of Listing 1: the input register prepared to 5
passes the classical precondition, the QFT output passes the superposition
assertion, and the inverse QFT restores the classical value 5.
"""

import numpy as np

from bench_helpers import print_table
from repro.algorithms.qft import build_qft_test_harness
from repro.core import check_program
from repro import RunConfig


def test_listing1_qft_harness(benchmark):
    program = build_qft_test_harness(width=4, value=5)

    report = benchmark(lambda: check_program(program, RunConfig(ensemble_size=64, seed=3)))

    print_table(
        "Listing 1: QFT test harness assertions",
        [
            {
                "breakpoint": record.index,
                "assertion": record.name,
                "type": record.outcome.assertion_type,
                "p_value": record.p_value,
                "passed": record.passed,
            }
            for record in report.records
        ],
    )
    assert report.passed
    assert [r.outcome.assertion_type for r in report.records] == [
        "classical",
        "superposition",
        "classical",
    ]


def test_listing1_qft_cross_validation(benchmark):
    """The cross-validation step of Section 4.2: QFT vs the closed-form DFT."""
    from repro.algorithms.qft import build_qft_program

    # QFT |x> = 2^{-n/2} sum_k exp(2 pi i x k / 2^n) |k>: the unitary inverse DFT.
    dft = np.fft.ifft(np.eye(16), norm="ortho")

    def compare():
        program = build_qft_program(4, swaps=True)
        return np.max(np.abs(program.unitary() - dft))

    deviation = benchmark(compare)
    print_table(
        "Listing 1 cross-validation: QFT unitary vs closed-form DFT matrix",
        [{"width": 4, "max_absolute_deviation": float(deviation)}],
    )
    assert deviation < 1e-10
