"""Clifford breakpoint workloads: GHZ chains, teleportation, repetition codes.

The paper's workloads (QFT arithmetic, Shor, Grover) are all non-Clifford,
which caps the assertion checker at statevector widths (~15 qubits).  The
scenarios here are built *entirely* from the Clifford generator set
(H/X/Z/CX/CZ/SWAP), so the stabilizer backend checks them at widths no dense
representation can hold — the deep variants run the full checker pipeline at
24–50+ qubits.  Every scenario follows the :mod:`repro.bugs` convention: a
correct/buggy program pair carrying identical assertions, with the buggy
variant violating exactly one of them.

Assertion operands are deliberately kept narrow (single qubits, syndrome
registers) even when the programs are wide: the chi-square evaluators
materialise dense ``2**num_bits`` histograms, so wide *programs* with narrow
*assertions* is precisely the regime the tableau's sparse branching readout
is built for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.config import RunConfig
from ..core.session import Session
from ..lang.program import Program
from .ensembles import _rate_row, _session_for

__all__ = [
    "build_ghz_chain_program",
    "build_teleportation_program",
    "build_repetition_code_program",
    "CliffordScenario",
    "CLIFFORD_SCENARIOS",
    "clifford_scenario_names",
    "get_clifford_scenario",
    "clifford_detection_sweep",
]


def build_ghz_chain_program(
    num_qubits: int = 8, buggy: bool = False, name: str | None = None
) -> Program:
    """A GHZ chain with end-to-end entanglement breakpoints.

    H on qubit 0 followed by a CX ladder entangles the whole register; the
    assertions pin the two chain ends to be entangled and jointly uniform
    over ``{00, 11}``.  The buggy variant drops the middle CX link, cutting
    the chain into two independent halves, which the entanglement assertion
    between the ends catches.
    """
    if num_qubits < 3:
        raise ValueError("GHZ chain needs at least 3 qubits")
    program = Program(name or ("ghz_chain_broken" if buggy else "ghz_chain"))
    register = program.qreg("q", num_qubits)
    for qubit in register:
        program.prep_z(qubit, 0)
    program.h(register[0])
    skipped_link = num_qubits // 2 - 1
    for i in range(num_qubits - 1):
        if buggy and i == skipped_link:
            continue  # bug: the chain is never joined across the middle
        program.cnot(register[i], register[i + 1])
    program.assert_entangled(
        [register[0]], [register[num_qubits - 1]], label="chain ends entangled"
    )
    program.assert_superposition(
        [register[0], register[num_qubits - 1]],
        values=(0, 3),
        label="ends jointly uniform over 00/11",
    )
    program.measure(register, label="ghz")
    return program


def build_teleportation_program(
    num_hops: int = 1, buggy: bool = False, name: str | None = None
) -> Program:
    """Teleport ``|1>`` through ``num_hops`` Bell pairs, corrections deferred.

    Each hop consumes a fresh Bell pair; the Pauli corrections are applied
    coherently (CX/CZ controlled on the sender's qubits), so the whole
    protocol stays unitary and Clifford.  A breakpoint checks each Bell pair
    before use and a classical assertion checks the payload arrived intact.
    The buggy variant forgets the CX (X-correction) of the final hop,
    leaving the delivered qubit uniformly random.
    """
    if num_hops < 1:
        raise ValueError("teleportation needs at least one hop")
    program = Program(name or ("teleport_no_correction" if buggy else "teleport"))
    source = program.qreg("msg", 1)
    program.prep_z(source[0], 1)  # the payload: |1>
    carrier = source[0]
    for hop in range(num_hops):
        pair = program.qreg(f"bell{hop}", 2)
        program.prep_z(pair[0], 0)
        program.prep_z(pair[1], 0)
        program.h(pair[0])
        program.cnot(pair[0], pair[1])
        program.assert_entangled(
            [pair[0]], [pair[1]], label=f"hop {hop}: Bell pair entangled"
        )
        program.cnot(carrier, pair[0])
        program.h(carrier)
        if not (buggy and hop == num_hops - 1):
            program.cnot(pair[0], pair[1])  # X correction
        program.cz(carrier, pair[1])  # Z correction
        carrier = pair[1]
    program.assert_classical([carrier], 1, label="payload delivered as |1>")
    program.measure([carrier], label="payload")
    return program


#: Maximum width of one asserted syndrome window (dense 2**k histograms).
_SYNDROME_WINDOW = 12


def build_repetition_code_program(
    num_data: int = 5,
    buggy: bool = False,
    name: str | None = None,
) -> Program:
    """Repetition-code syndrome extraction on a logical ``|+>_L`` state.

    ``num_data`` data qubits are entangled into the code state
    ``(|0...0> + |1...1>)/sqrt(2)``; one syndrome ancilla per adjacent pair
    extracts the parity.  Error-free, every syndrome is 0 and the ancillas
    are in a product state with the data.  The buggy variant injects an X
    error on the middle data qubit between encoding and extraction, firing
    the two adjacent syndrome bits.
    """
    if num_data < 3:
        raise ValueError("repetition code needs at least 3 data qubits")
    program = Program(
        name or ("repetition_code_xerror" if buggy else "repetition_code")
    )
    data = program.qreg("d", num_data)
    syndrome = program.qreg("s", num_data - 1)
    for qubit in list(data) + list(syndrome):
        program.prep_z(qubit, 0)
    program.h(data[0])
    for i in range(num_data - 1):
        program.cnot(data[i], data[i + 1])
    if buggy:
        program.x(data[num_data // 2])  # bug: an undetected physical X error
    for i in range(num_data - 1):
        program.cnot(data[i], syndrome[i])
        program.cnot(data[i + 1], syndrome[i])
    # Wide codes assert the syndrome in bounded windows: the statistical
    # evaluators materialise dense 2**k histograms, so capping each asserted
    # group keeps 50-qubit codes as cheap to check as 9-qubit ones (and the
    # injected error always fires inside one window).
    syndrome_qubits = list(syndrome)
    for start in range(0, len(syndrome_qubits), _SYNDROME_WINDOW):
        window = syndrome_qubits[start : start + _SYNDROME_WINDOW]
        program.assert_classical(
            window, 0, label=f"no syndrome fired in bits {start}..{start + len(window) - 1}"
        )
    program.assert_product(
        [data[0]],
        syndrome_qubits[:_SYNDROME_WINDOW],
        label="syndrome disentangled from data",
    )
    program.assert_entangled(
        [data[0]], [data[num_data - 1]], label="logical state still entangled"
    )
    program.measure(syndrome, label="syndrome")
    return program


@dataclass(frozen=True)
class CliffordScenario:
    """A correct/buggy Clifford program pair, parameterised by width."""

    name: str
    description: str
    #: ``build(num_qubits, buggy) -> Program``; ``num_qubits`` is the total
    #: register-file width the pair of programs occupies.
    build: Callable[[int, bool], Program]
    #: Width used by the cross-backend equivalence matrix (statevector-safe).
    moderate_qubits: int
    #: Width used by the stabilizer-only deep runs (beyond dense reach).
    deep_qubits: int
    #: The assertion type expected to catch the bug.
    catching_assertion: str
    ensemble_size: int = 32
    #: Width used by the packed-tableau width-frontier runs (bench_width):
    #: far past any dense budget, feasible only on the bit-packed engine.
    wide_qubits: int = 128

    def build_correct(self, num_qubits: int | None = None) -> Program:
        return self.build(num_qubits or self.moderate_qubits, False)

    def build_buggy(self, num_qubits: int | None = None) -> Program:
        return self.build(num_qubits or self.moderate_qubits, True)


def _build_ghz(num_qubits: int, buggy: bool) -> Program:
    return build_ghz_chain_program(num_qubits, buggy=buggy)


def _build_teleport(num_qubits: int, buggy: bool) -> Program:
    # 1 payload qubit + 2 per hop.
    hops = max((num_qubits - 1) // 2, 1)
    return build_teleportation_program(hops, buggy=buggy)


def _build_repetition(num_qubits: int, buggy: bool) -> Program:
    # k data qubits + (k - 1) syndrome ancillas = 2k - 1 total.
    num_data = max((num_qubits + 1) // 2, 3)
    return build_repetition_code_program(num_data, buggy=buggy)


CLIFFORD_SCENARIOS: dict[str, CliffordScenario] = {
    scenario.name: scenario
    for scenario in [
        CliffordScenario(
            name="ghz_broken_link",
            description="GHZ chain with the middle CX link dropped",
            build=_build_ghz,
            moderate_qubits=8,
            deep_qubits=32,
            catching_assertion="entangled",
        ),
        CliffordScenario(
            name="teleport_missing_correction",
            description="Teleportation chain missing the final X correction",
            build=_build_teleport,
            moderate_qubits=9,
            deep_qubits=25,
            catching_assertion="classical",
        ),
        CliffordScenario(
            name="repetition_code_xerror",
            description="Repetition code with an injected X error on a data qubit",
            build=_build_repetition,
            moderate_qubits=9,
            deep_qubits=25,
            catching_assertion="classical",
        ),
    ]
}


def clifford_scenario_names() -> list[str]:
    return sorted(CLIFFORD_SCENARIOS)


def get_clifford_scenario(name: str) -> CliffordScenario:
    try:
        return CLIFFORD_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown Clifford scenario {name!r}; available: "
            f"{', '.join(clifford_scenario_names())}"
        ) from None


def clifford_detection_sweep(
    widths: Sequence[int] = (8, 16, 24, 32),
    names: Sequence[str] | None = None,
    *,
    trials: int = 10,
    config: RunConfig | None = None,
    session: Session | None = None,
) -> list[dict]:
    """Detection/false-positive rates of the Clifford scenarios vs width.

    This is the deep extension of :func:`repro.workloads.ensemble_size_sweep`:
    the same statistics, but swept over register width on the stabilizer
    backend, where widths beyond ~20 qubits are unreachable for any dense
    backend.  One row per (scenario, width).
    """
    base = _session_for(
        "clifford_detection_sweep", config, session,
        default_backend="stabilizer", sweep_defaults={"ensemble_size": 32},
    )
    rows = []
    for name in names or clifford_scenario_names():
        scenario = get_clifford_scenario(name)
        for width in widths:
            rows.append(
                _rate_row(
                    base,
                    lambda: scenario.build_buggy(width),
                    lambda: scenario.build_correct(width),
                    trials,
                    scenario=name,
                    # Builders round the requested width to their register
                    # layout; record what was actually built.
                    num_qubits=scenario.build_correct(width).num_qubits,
                    ensemble_size=base.config.ensemble_size,
                )
            )
    return rows
