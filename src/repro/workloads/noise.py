"""Noisy workloads at full scale: Shor gate-noise sweeps and deep Clifford runs.

These are the sweeps the density-matrix backend cannot touch: per-gate Pauli
noise on the 11–13 qubit Shor breakpoint workload needs ``4^13`` complex
entries (~1 GiB) *per state* on a density matrix, while the trajectory
engine carries the whole noisy ensemble as a ``(B, 2^13)`` stack (a few MiB)
through **one** incremental plan walk.  On the 24–48 qubit Clifford
scenarios even a statevector is out of reach; there the executor routes the
same Pauli models onto tableau Pauli frames, where a noise event costs two
bit-flips per member.

Both sweeps take ``config=RunConfig(...)`` or ``session=`` like every other
workload sweep.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..algorithms.shor import build_shor_program
from ..core.config import RunConfig
from ..core.session import Session
from ..lang.program import Program
from ..sim.noise import KrausChannel, depolarizing
from .clifford import get_clifford_scenario
from .ensembles import _rate_row, _session_for, noise_model_for_rate

__all__ = [
    "build_shor_noise_workload",
    "shor_gate_noise_sweep",
    "clifford_gate_noise_sweep",
]


def build_shor_noise_workload(buggy: bool = False) -> Program:
    """The 13-qubit Shor order-finding breakpoint workload (N=15, a=7).

    Per-iteration scratch assertions make this the paper's interactive
    debugging scenario; the buggy variant feeds iteration 0 the wrong
    modular inverse (12 instead of 13 — bug type 6), which leaves scratch
    qubits dirty and fires the iteration assertions.
    """
    overrides = {0: 12} if buggy else None
    return build_shor_program(
        modulus=15,
        base=7,
        num_output_bits=3,
        inverse_overrides=overrides,
        assert_each_iteration=True,
        name="shor_noise_buggy" if buggy else "shor_noise",
    ).program


def shor_gate_noise_sweep(
    error_rates: Sequence[float] = (0.0, 1e-4, 1e-3),
    channel: Callable[[float], KrausChannel] = depolarizing,
    *,
    trials: int = 3,
    config: RunConfig | None = None,
    session: Session | None = None,
) -> list[dict]:
    """Per-gate noise sweep on the full-width Shor breakpoint workload.

    One row per error rate with detection and false-positive rates.  Every
    checking run is a single batched trajectory walk of the ~2.8k-gate,
    13-qubit plan — the sweep the ROADMAP flagged as out of density reach.
    """
    base = _session_for(
        "shor_gate_noise_sweep", config, session, default_backend="trajectory"
    )
    return [
        _rate_row(
            base._derive(noise=noise_model_for_rate(channel, rate)),
            lambda: build_shor_noise_workload(buggy=True),
            lambda: build_shor_noise_workload(buggy=False),
            trials,
            workload="shor_13q_breakpoints",
            num_qubits=13,
            gate_error=float(rate),
            ensemble_size=base.config.ensemble_size,
        )
        for rate in error_rates
    ]


def clifford_gate_noise_sweep(
    widths: Sequence[int] = (24, 32, 48),
    error_rates: Sequence[float] = (0.0, 0.01),
    channel: Callable[[float], KrausChannel] = depolarizing,
    scenario: str = "ghz_broken_link",
    *,
    trials: int = 3,
    config: RunConfig | None = None,
    session: Session | None = None,
) -> list[dict]:
    """Per-gate Pauli noise on deep (24–48 qubit) Clifford scenarios.

    Runs entirely on the stabilizer tableau with per-member Pauli frames:
    one noiseless tableau walk per checking run, O(1) frame work per gate
    per member, at widths no dense representation can hold.  One row per
    (width, rate).
    """
    base = _session_for(
        "clifford_gate_noise_sweep", config, session,
        default_backend="stabilizer", sweep_defaults={"ensemble_size": 32},
    )
    spec = get_clifford_scenario(scenario)
    return [
        _rate_row(
            base._derive(noise=noise_model_for_rate(channel, rate)),
            lambda: spec.build_buggy(width),
            lambda: spec.build_correct(width),
            trials,
            scenario=scenario,
            num_qubits=spec.build_correct(width).num_qubits,
            gate_error=float(rate),
            ensemble_size=base.config.ensemble_size,
        )
        for width in widths
        for rate in error_rates
    ]
