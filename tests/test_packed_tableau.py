"""Property tests: the big-int column tableau against the unpacked reference.

The column ``_Tableau`` (one arbitrary-width integer per qubit column, with
measurement bit-sliced over rows) must be identical to the reference
``_UnpackedTableau`` on random Clifford circuits at every width class the
big-int words care about: below one machine word (3, 17), exactly one word
(64), just past a word boundary (65) and multi-word (130).  Identity is
checked bit for bit on the full state after seeded walks that mix gates and
collapses, and through every readout surface: ``deterministic_outcome`` per
qubit, the exact sparse ``tableau_outcome_distribution`` (with and without
a support cap), and seeded collapse-walk sample streams that consume the rng
identically.  ``tableau_pauli_expectation`` is checked against the dense
``<P>`` of the same state built gate by gate on a ``Statevector``.
"""

import numpy as np
import pytest

from repro.lang import Program
from repro.sim import StabilizerBackend, gates
from repro.sim.stabilizer_backend import (
    _Tableau,
    _UnpackedTableau,
    tableau_outcome_distribution,
    tableau_pauli_expectation,
)
from repro.sim.statevector import Statevector

SEED = 20190622
WIDTHS = [3, 17, 64, 65, 130]

_NAMES_1Q = ("h", "s", "sdg", "x", "y", "z")
_NAMES_2Q = ("cx", "cz", "swap")


def _random_ops(num_qubits: int, count: int, rng: np.random.Generator):
    """A random op word in the ``apply_ops`` format (slots == qubit ids)."""
    ops = []
    for _ in range(count):
        if num_qubits < 2 or rng.random() < 0.6:
            ops.append(
                (_NAMES_1Q[rng.integers(len(_NAMES_1Q))], int(rng.integers(num_qubits)))
            )
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            ops.append((_NAMES_2Q[rng.integers(len(_NAMES_2Q))], int(a), int(b)))
    return ops


def _pair(num_qubits: int, gate_count: int, seed: int):
    """Packed and unpacked tableaus walked through one random circuit."""
    rng = np.random.default_rng(seed)
    ops = _random_ops(num_qubits, gate_count, rng)
    qubits = list(range(num_qubits))
    packed = _Tableau(num_qubits)
    unpacked = _UnpackedTableau(num_qubits)
    packed.apply_ops(ops, qubits)
    unpacked.apply_ops(ops, qubits)
    return packed, unpacked


def _collapse_stream(tableau, qubits, shots: int, seed: int) -> list[int]:
    """Seeded measurement stream via the collapse walk; rng use is identical
    for any two observationally equal tableaus."""
    rng = np.random.default_rng(seed)
    stream = []
    for _ in range(shots):
        branch = tableau.copy()
        value = 0
        for position, q in enumerate(qubits):
            outcome = branch.deterministic_outcome(q)
            if outcome is None:
                outcome = int(rng.random() < 0.5)
                branch.collapse(q, outcome)
            value |= outcome << position
        stream.append(value)
    return stream


@pytest.mark.parametrize("num_qubits", WIDTHS)
def test_deterministic_outcomes_match(num_qubits):
    for trial in range(3):
        packed, unpacked = _pair(num_qubits, 4 * num_qubits, SEED + trial)
        for q in range(num_qubits):
            assert packed.deterministic_outcome(q) == unpacked.deterministic_outcome(q)


@pytest.mark.parametrize("num_qubits", WIDTHS)
def test_outcome_distributions_match(num_qubits):
    rng = np.random.default_rng(SEED)
    for trial in range(3):
        packed, unpacked = _pair(num_qubits, 4 * num_qubits, SEED + 100 + trial)
        # Random marginals stay bounded by probing few qubits at a time.
        probe = sorted(rng.choice(num_qubits, size=min(6, num_qubits), replace=False))
        probe = [int(q) for q in probe]
        packed_dist = tableau_outcome_distribution(packed, probe)
        unpacked_dist = tableau_outcome_distribution(unpacked, probe)
        assert packed_dist is not None and unpacked_dist is not None
        assert set(packed_dist) == set(unpacked_dist)
        for value, probability in packed_dist.items():
            assert unpacked_dist[value] == pytest.approx(probability)


@pytest.mark.parametrize("num_qubits", WIDTHS)
def test_support_cap_agrees(num_qubits):
    """Both engines hit (or clear) a support cap identically."""
    packed, unpacked = _pair(num_qubits, 4 * num_qubits, SEED + 200)
    probe = list(range(min(8, num_qubits)))
    for cap in (1, 4, 1 << len(probe)):
        packed_dist = tableau_outcome_distribution(packed, probe, max_support=cap)
        unpacked_dist = tableau_outcome_distribution(unpacked, probe, max_support=cap)
        assert (packed_dist is None) == (unpacked_dist is None)
        if packed_dist is not None:
            assert set(packed_dist) == set(unpacked_dist)


@pytest.mark.parametrize("num_qubits", WIDTHS)
def test_seeded_sample_streams_match(num_qubits):
    """The seeded collapse walk consumes the rng identically on both engines."""
    packed, unpacked = _pair(num_qubits, 4 * num_qubits, SEED + 300)
    rng = np.random.default_rng(SEED + 300)
    probe = sorted(rng.choice(num_qubits, size=min(10, num_qubits), replace=False))
    probe = [int(q) for q in probe]
    assert _collapse_stream(packed, probe, 32, SEED) == _collapse_stream(
        unpacked, probe, 32, SEED
    )


@pytest.mark.parametrize("num_qubits", WIDTHS)
def test_backend_sample_stream_matches_reference_marginal(num_qubits):
    """``StabilizerBackend.sample`` draws the stream the reference predicts.

    The backend samples with one ``rng.choice`` over its dense marginal; the
    same seeded draw over the *unpacked* engine's marginal must therefore be
    byte-identical — the backend-level spelling of packed/unpacked identity.
    """
    rng = np.random.default_rng(SEED + 400)
    ops = _random_ops(num_qubits, 4 * num_qubits, rng)
    qubits = list(range(num_qubits))

    program = Program("noop")
    program.qreg("q", num_qubits)
    backend = StabilizerBackend()
    backend.initialize(num_qubits)
    backend._require_tableau().apply_ops(ops, qubits)

    unpacked = _UnpackedTableau(num_qubits)
    unpacked.apply_ops(ops, qubits)

    probe = sorted(rng.choice(num_qubits, size=min(6, num_qubits), replace=False))
    probe = [int(q) for q in probe]
    distribution = tableau_outcome_distribution(unpacked, probe)
    probs = np.zeros(1 << len(probe))
    for value, probability in distribution.items():
        probs[value] = probability
    probs = probs / probs.sum()

    expected = np.random.default_rng(SEED).choice(len(probs), size=64, p=probs)
    observed = backend.sample(probe, shots=64, rng=SEED)
    assert list(observed) == list(expected)


def _mixed_walk(num_qubits: int, steps: int, seed: int, *tableaus) -> list:
    """Drive ``tableaus`` through one seeded walk of gates and collapses.

    About one step in four picks a qubit at random: a 50/50 qubit collapses
    onto a seeded coin on every tableau, a deterministic one is left alone.
    Returns the walk as ``("ops", ops)`` / ``("collapse", q, bit)`` steps.
    """
    rng = np.random.default_rng(seed)
    qubits = list(range(num_qubits))
    walk = []
    for _ in range(steps):
        if rng.random() < 0.25:
            q = int(rng.integers(num_qubits))
            bit = int(rng.integers(2))
            if tableaus[0].deterministic_outcome(q) is None:
                for tableau in tableaus:
                    tableau.collapse(q, bit)
                walk.append(("collapse", q, bit))
        else:
            ops = _random_ops(num_qubits, 1, rng)
            for tableau in tableaus:
                tableau.apply_ops(ops, qubits)
            walk.append(("ops", ops))
    return walk


def _column_bits(tableau: _Tableau):
    """The column engine's ``(x, z, r)`` as the reference's 0/1 arrays."""
    rows = range(2 * tableau.n)
    x, z, r = tableau.snapshot_token()
    return (
        np.array([[(c >> i) & 1 for i in rows] for c in x], dtype=np.uint8).T,
        np.array([[(c >> i) & 1 for i in rows] for c in z], dtype=np.uint8).T,
        np.array([(r >> i) & 1 for i in rows], dtype=np.uint8),
    )


@pytest.mark.parametrize("num_qubits", WIDTHS)
def test_full_state_matches_after_gate_and_collapse_walks(num_qubits):
    """Every x/z/r bit of every row agrees after each collapse."""
    for trial in range(3):
        columns = _Tableau(num_qubits)
        unpacked = _UnpackedTableau(num_qubits)
        rng = np.random.default_rng(SEED + 500 + trial)
        collapses = 0
        for _ in range(6):
            steps = max(num_qubits, 24)
            walk = _mixed_walk(
                num_qubits, steps, int(rng.integers(1 << 31)), columns, unpacked
            )
            collapses += sum(step[0] == "collapse" for step in walk)
            x, z, r = _column_bits(columns)
            np.testing.assert_array_equal(x, unpacked.x)
            np.testing.assert_array_equal(z, unpacked.z)
            np.testing.assert_array_equal(r, unpacked.r)
        assert collapses > 0
        for q in range(num_qubits):
            assert columns.is_random(q) == (unpacked.deterministic_outcome(q) is None)


_PAULI_MATRICES = {(0, 0): gates.I, (1, 0): gates.X, (1, 1): gates.Y, (0, 1): gates.Z}


def _dense_walk(num_qubits: int, walk) -> Statevector:
    """The state a ``_mixed_walk`` reaches, built gate by gate, densely."""
    state = Statevector(num_qubits)
    for step in walk:
        if step[0] == "collapse":
            _, q, bit = step
            state.project([q], bit).normalize()
            continue
        for name, *qubits in step[1]:
            if name == "cx":
                state.apply_controlled(gates.X, qubits[:1], qubits[1:])
            elif name == "cz":
                state.apply_controlled(gates.Z, qubits[:1], qubits[1:])
            else:
                state.apply_gate(name, qubits)
    return state


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 5, 8])
def test_pauli_expectation_matches_dense_state(num_qubits):
    """Random Paulis, half of them drawn from the stabilizer group (±1)."""
    rng = np.random.default_rng(SEED + 600 + num_qubits)
    seen = set()
    for trial in range(4):
        tableau = _Tableau(num_qubits)
        walk = _mixed_walk(num_qubits, 6 * num_qubits, SEED + 610 + trial, tableau)
        state = _dense_walk(num_qubits, walk)
        for draw in range(40):
            if draw % 2:
                rows = int(rng.integers(1 << num_qubits)) << num_qubits
                x_mask, z_mask = tableau.row_masks(rows)
            else:
                x_mask = int(rng.integers(1 << num_qubits))
                z_mask = int(rng.integers(1 << num_qubits))
            matrix = gates.kron_all(
                _PAULI_MATRICES[((x_mask >> q) & 1, (z_mask >> q) & 1)]
                for q in range(num_qubits)
            )
            expected = state.expectation_value(matrix).real
            observed = tableau_pauli_expectation(tableau, x_mask, z_mask)
            assert observed == pytest.approx(expected, abs=1e-9)
            seen.add(observed)
    assert seen == {-1.0, 0.0, 1.0}


def test_stabilizer_group_elements_are_signed_at_width():
    """Products of stabilizer rows give ±1 — the sign the reference predicts."""
    num_qubits = 130
    columns = _Tableau(num_qubits)
    unpacked = _UnpackedTableau(num_qubits)
    _mixed_walk(num_qubits, 4 * num_qubits, SEED + 700, columns, unpacked)
    rng = np.random.default_rng(SEED + 701)
    signs = set()
    for _ in range(20):
        rows = np.flatnonzero(rng.random(num_qubits) < 0.3) + num_qubits
        acc_x = np.zeros(num_qubits, dtype=np.int64)
        acc_z = np.zeros(num_qubits, dtype=np.int64)
        acc_r = 0
        for row in rows:
            x1 = unpacked.x[row].astype(np.int64)
            z1 = unpacked.z[row].astype(np.int64)
            g = int(_UnpackedTableau._g_sum(x1, z1, acc_x, acc_z))
            acc_r = ((2 * acc_r + 2 * int(unpacked.r[row]) + g) % 4) // 2
            acc_x ^= x1
            acc_z ^= z1
        x_mask = sum(1 << int(q) for q in np.flatnonzero(acc_x))
        z_mask = sum(1 << int(q) for q in np.flatnonzero(acc_z))
        value = tableau_pauli_expectation(columns, x_mask, z_mask)
        assert value == (-1.0 if acc_r else 1.0)
        signs.add(value)
    assert signs == {-1.0, 1.0}
