"""Structural recognition of Clifford gates from their dense matrices.

The stabilizer backend (:mod:`repro.sim.stabilizer_backend`) simulates only
Clifford unitaries, but the :class:`~repro.sim.backend.SimulationBackend`
contract hands it dense matrices, not gate names.  This module closes the gap:
it maps a matrix back onto a sequence of tableau primitives (``h``, ``s``,
``cx``, ...) when — and only when — the matrix is Clifford.

Recognition is *structural*, never simulated:

* **Single-qubit gates.**  The 1-qubit Clifford group has 24 elements up to
  global phase.  They are enumerated once by breadth-first search over the
  generators ``{H, S}``, keyed by a phase-canonical rounding of the matrix,
  so any spelling of a Clifford — ``h``, ``sdg``, ``rz(pi/2)``,
  ``rx(-pi/2)``, ``sx``, ``u3`` with right-angle parameters — resolves to the
  same tableau word.  Global phase is irrelevant for an *uncontrolled* gate
  (it multiplies the whole state), which is exactly the equivalence the keying
  quotients out.
* **Two-qubit gates.**  The uncontrolled two-qubit Cliffords reachable
  through the gate library are ``CX``/``CZ``/``SWAP``; they are matched the
  same phase-canonical way (operand order distinguishes the two CX
  orientations).
* **Controlled gates.**  ``controlled-U`` is Clifford **iff** ``U = i^k P``
  for a Pauli ``P`` and integer ``k`` — here the global phase of the base
  matrix *matters* (it becomes a relative phase on the control), so the match
  is exact, not phase-canonical.  ``c-(i^k P)`` factors into ``S^k`` on the
  control followed by the controlled Pauli, all tableau primitives.  This is
  what makes ``phase(pi)`` (= CZ when controlled) and ``rz(pi)`` (= ``-iZ``,
  i.e. ``Sdg`` on the control then CZ) Clifford while ``phase(pi/2)``
  (= controlled-S) correctly is not.
"""

from __future__ import annotations

import numpy as np

from . import gates as _gates

__all__ = [
    "NotCliffordGateError",
    "match_single_qubit_clifford",
    "match_two_qubit_clifford",
    "match_controlled_pauli",
    "decompose_gate",
    "decompose_controlled_gate",
]


class NotCliffordGateError(ValueError):
    """Raised when a gate cannot be expressed as a stabilizer-tableau update."""


#: Tableau ops: each entry is ``(op_name, *operand_slots)`` where a slot
#: indexes into the qubit list the matrix was applied to.
TableauOps = "tuple[tuple, ...]"


def _canonical_key(matrix: np.ndarray) -> bytes | None:
    """Phase-canonical, rounded byte key of a unitary matrix.

    The matrix is divided by the phase of its first entry of non-negligible
    magnitude (row-major), so two matrices equal up to global phase share a
    key.  Clifford entries have magnitude 0, 1/2, 1/sqrt(2) or 1, far from
    the 0.25 threshold, so the anchor choice is numerically stable.
    """
    flat = np.asarray(matrix, dtype=complex).reshape(-1)
    anchor = None
    for value in flat:
        if abs(value) > 0.25:
            anchor = value
            break
    if anchor is None:  # not unitary; cannot be a gate matrix
        return None
    normalised = flat * (abs(anchor) / anchor)
    # The +0.0 collapses IEEE negative zeros, which would otherwise make two
    # phase-equivalent matrices key differently.
    return (np.round(normalised, 6) + 0.0).tobytes()


def _bfs_clifford_table(
    generators: "dict[str, np.ndarray]", dim: int
) -> "dict[bytes, tuple[tuple, ...]]":
    """Enumerate the group generated by ``generators`` up to global phase.

    Returns ``{canonical_key: shortest op word}`` where each op is
    ``(name, 0)`` for the single-qubit table.
    """
    identity = np.eye(dim, dtype=complex)
    table: dict[bytes, tuple[tuple, ...]] = {_canonical_key(identity): ()}
    frontier: list[tuple[np.ndarray, tuple[tuple, ...]]] = [(identity, ())]
    while frontier:
        next_frontier = []
        for matrix, word in frontier:
            for name, generator in generators.items():
                product = generator @ matrix
                key = _canonical_key(product)
                if key not in table:
                    # Ops are recorded in application order (first op applied
                    # first), so the new generator goes at the end.
                    new_word = word + ((name, 0),)
                    table[key] = new_word
                    next_frontier.append((product, new_word))
        frontier = next_frontier
    return table


#: All 24 single-qubit Cliffords keyed canonically, valued by H/S words.
_CLIFFORD_1Q: "dict[bytes, tuple[tuple, ...]]" = _bfs_clifford_table(
    {"h": _gates.H, "s": _gates.S}, dim=2
)

#: Uncontrolled two-qubit Cliffords expressible in the gate library.  Slots
#: refer to the applied qubit list: the library CNOT has control = qubit 0.
_CLIFFORD_2Q: "dict[bytes, tuple[tuple, ...]]" = {
    _canonical_key(_gates.CNOT): (("cx", 0, 1),),
    _canonical_key(_gates.CZ): (("cz", 0, 1),),
    _canonical_key(_gates.SWAP): (("swap", 0, 1),),
}

_PAULIS = {
    "i": _gates.I,
    "x": _gates.X,
    "y": _gates.Y,
    "z": _gates.Z,
}


def match_single_qubit_clifford(matrix: np.ndarray) -> "tuple[tuple, ...] | None":
    """Tableau word for a 2x2 Clifford matrix (up to global phase), else None."""
    key = _canonical_key(matrix)
    return _CLIFFORD_1Q.get(key) if key is not None else None


def match_two_qubit_clifford(matrix: np.ndarray) -> "tuple[tuple, ...] | None":
    """Tableau word for a 4x4 library Clifford (up to global phase), else None."""
    key = _canonical_key(matrix)
    return _CLIFFORD_2Q.get(key) if key is not None else None


def match_controlled_pauli(matrix: np.ndarray) -> "tuple[int, str] | None":
    """Decompose a 2x2 matrix as exactly ``i^k P`` (phase-sensitive).

    Returns ``(k, pauli_name)`` with ``k`` in 0..3, or ``None``.  Exactness is
    required because the base matrix's global phase turns into a relative
    phase once the gate is controlled.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        return None
    for name, pauli in _PAULIS.items():
        for k in range(4):
            if np.allclose(matrix, (1j**k) * pauli, atol=1e-9):
                return k, name
    return None


#: Memoised decomposition results keyed by the exact matrix bytes.  Gate
#: matrices come from a small fixed library, so the cache stays tiny while
#: turning the per-application structural match (the hot path of a deep
#: tableau walk) into a dict lookup.  ``None`` records a non-Clifford verdict.
_DECOMPOSE_CACHE: "dict[tuple, tuple[tuple, ...] | None]" = {}


def decompose_gate(matrix: np.ndarray, num_qubits: int) -> "tuple[tuple, ...]":
    """Tableau ops implementing an uncontrolled ``matrix`` on ``num_qubits``.

    Raises :class:`NotCliffordGateError` when the matrix is not a recognised
    Clifford.
    """
    matrix = np.ascontiguousarray(matrix, dtype=complex)
    key = ("u", num_qubits, matrix.tobytes())
    if key not in _DECOMPOSE_CACHE:
        if num_qubits == 1:
            ops = match_single_qubit_clifford(matrix)
        elif num_qubits == 2:
            ops = match_two_qubit_clifford(matrix)
        else:
            ops = None
        _DECOMPOSE_CACHE[key] = ops
    ops = _DECOMPOSE_CACHE[key]
    if ops is None:
        raise NotCliffordGateError(
            f"{1 << num_qubits}x{1 << num_qubits} matrix is not a recognised "
            "Clifford gate"
        )
    return ops


def decompose_controlled_gate(
    matrix: np.ndarray,
    num_controls: int,
    num_targets: int,
) -> "tuple[tuple, ...]":
    """Tableau ops for ``matrix`` on targets conditioned on the controls.

    Operand slots: slot 0 is the control, slot 1 the target (matching the
    ``controls + targets`` qubit list the executor lowers with).  Only one
    control and one target can be Clifford: ``c-U`` normalises the Paulis iff
    ``U = i^k P``, and every extra control (Toffoli, Fredkin, ...) leaves the
    Clifford group.
    """
    if num_controls != 1 or num_targets != 1:
        raise NotCliffordGateError(
            f"controlled gate with {num_controls} control(s) and "
            f"{num_targets} target(s) is not Clifford"
        )
    matrix = np.ascontiguousarray(matrix, dtype=complex)
    key = ("c", matrix.tobytes())
    if key not in _DECOMPOSE_CACHE:
        _DECOMPOSE_CACHE[key] = _controlled_pauli_ops(matrix)
    ops = _DECOMPOSE_CACHE[key]
    if ops is None:
        raise NotCliffordGateError(
            "controlled base matrix is not i^k * Pauli, so the controlled "
            "gate is not Clifford"
        )
    return ops


def _controlled_pauli_ops(matrix: np.ndarray) -> "tuple[tuple, ...] | None":
    match = match_controlled_pauli(matrix)
    if match is None:
        return None
    k, pauli = match
    ops: list[tuple] = [("s", 0)] * k  # c-(i^k I) == S^k on the control
    if pauli == "x":
        ops.append(("cx", 0, 1))
    elif pauli == "z":
        ops.append(("cz", 0, 1))
    elif pauli == "y":
        # CY = S_t . CX . Sdg_t (conjugate the flip into the Y axis).
        ops.extend((("sdg", 1), ("cx", 0, 1), ("s", 1)))
    return tuple(ops)


def _self_check() -> None:
    """The BFS table must contain exactly the 24 single-qubit Cliffords."""
    assert len(_CLIFFORD_1Q) == 24, len(_CLIFFORD_1Q)


_self_check()
