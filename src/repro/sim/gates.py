"""Gate matrix library for the statevector simulator.

This module is the lowest layer of the simulation substrate that replaces the
QX simulator used in the paper.  Every gate is represented by a dense, unitary
NumPy matrix acting on one, two, or three qubits; larger controlled gates are
built on demand with :func:`controlled`.

Conventions
-----------
* Matrices are indexed in **little-endian** order: for a two-qubit gate acting
  on qubits ``(q0, q1)``, basis state index ``b1 * 2 + b0`` corresponds to
  qubit ``q0`` holding ``b0`` and qubit ``q1`` holding ``b1``.  The simulator
  (:mod:`repro.sim.statevector`) uses the same convention, so matrices can be
  applied without any reordering.
* ``RZ(theta)`` is ``diag(exp(-i theta/2), exp(+i theta/2))``; ``PHASE(theta)``
  (also known as U1) is ``diag(1, exp(i theta))``.  The two differ by a global
  phase, which matters as soon as the gate is controlled — the distinction is
  exactly the subject of Table 1 of the paper.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "I",
    "X",
    "Y",
    "Z",
    "H",
    "S",
    "SDG",
    "T",
    "TDG",
    "SX",
    "CNOT",
    "CZ",
    "SWAP",
    "CCNOT",
    "CSWAP",
    "rx",
    "ry",
    "rz",
    "phase",
    "u3",
    "controlled",
    "is_unitary",
    "gates_equal_up_to_global_phase",
    "global_phase_between",
    "kron_all",
    "GATE_BUILDERS",
    "FIXED_GATES",
    "gate_matrix",
]

# ---------------------------------------------------------------------------
# Fixed single-qubit gates
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)

I = np.eye(2, dtype=complex)

X = np.array([[0, 1], [1, 0]], dtype=complex)

Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

Z = np.array([[1, 0], [0, -1]], dtype=complex)

H = np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2

S = np.array([[1, 0], [0, 1j]], dtype=complex)

SDG = S.conj().T

T = np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)

TDG = T.conj().T

#: Square root of X (useful for decompositions of controlled gates).
SX = 0.5 * np.array(
    [[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex
)

# ---------------------------------------------------------------------------
# Fixed multi-qubit gates (little-endian: qubit 0 is the least significant bit)
# ---------------------------------------------------------------------------

#: CNOT with control = qubit 0, target = qubit 1 (little-endian ordering).
CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ],
    dtype=complex,
)

CZ = np.diag([1, 1, 1, -1]).astype(complex)

SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

#: Toffoli with controls = qubits 0, 1 and target = qubit 2.
CCNOT = np.eye(8, dtype=complex)
CCNOT[[3, 7], :] = 0.0
CCNOT[3, 7] = 1.0
CCNOT[7, 3] = 1.0

#: Fredkin (controlled swap) with control = qubit 0, swapped = qubits 1, 2.
CSWAP = np.eye(8, dtype=complex)
CSWAP[[3, 5], :] = 0.0
CSWAP[3, 5] = 1.0
CSWAP[5, 3] = 1.0


# ---------------------------------------------------------------------------
# Parameterised gates
# ---------------------------------------------------------------------------


def rx(theta: float) -> np.ndarray:
    """Rotation about the X axis by ``theta`` radians."""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    """Rotation about the Y axis by ``theta`` radians."""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    """Rotation about the Z axis by ``theta`` radians.

    ``rz(theta) = diag(exp(-i theta / 2), exp(+i theta / 2))``.  This is the
    gate named ``Rz`` in the Scaffold listings of the paper.
    """
    return np.array(
        [[cmath.exp(-0.5j * theta), 0], [0, cmath.exp(0.5j * theta)]],
        dtype=complex,
    )


def phase(theta: float) -> np.ndarray:
    """Phase gate ``diag(1, exp(i theta))`` (a.k.a. U1).

    Unlike :func:`rz`, the phase gate leaves the ``|0>`` amplitude untouched,
    which is the behaviour required by Fourier-space arithmetic once the gate
    is controlled.
    """
    return np.array([[1, 0], [0, cmath.exp(1j * theta)]], dtype=complex)


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    """Generic single-qubit gate in the OpenQASM U3 parameterisation."""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def controlled(matrix: np.ndarray, num_controls: int = 1) -> np.ndarray:
    """Return the controlled version of ``matrix`` with ``num_controls`` controls.

    The controls occupy the *low* qubit indices and the original operands the
    high indices, matching how :class:`repro.sim.statevector.Statevector`
    expects controlled matrices to be laid out when the qubit list is
    ``controls + targets``.

    The gate acts as ``matrix`` on the target qubits only when every control
    qubit is ``1``; otherwise it acts as the identity.
    """
    if num_controls < 0:
        raise ValueError("num_controls must be non-negative")
    result = np.asarray(matrix, dtype=complex)
    for _ in range(num_controls):
        dim = result.shape[0]
        expanded = np.eye(2 * dim, dtype=complex)
        # With the control as the new least-significant qubit, the basis
        # states where the control is 1 are the odd indices.
        odd = np.arange(1, 2 * dim, 2)
        expanded[np.ix_(odd, odd)] = result
        result = expanded
    return result


def kron_all(matrices: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of ``matrices`` with the *first* factor acting on the
    least-significant qubit (little-endian layout)."""
    result = np.array([[1.0 + 0.0j]])
    for matrix in matrices:
        result = np.kron(np.asarray(matrix, dtype=complex), result)
    return result


def is_unitary(matrix: np.ndarray, atol: float = 1e-10) -> bool:
    """Check whether ``matrix`` is unitary within tolerance ``atol``."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0])
    return bool(np.allclose(matrix.conj().T @ matrix, identity, atol=atol))


def global_phase_between(a: np.ndarray, b: np.ndarray) -> complex | None:
    """Return the scalar ``c`` with ``a == c * b`` if one exists, else ``None``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return None
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < 1e-12:
        return None
    c = a[idx] / b[idx]
    if np.allclose(a, c * b, atol=1e-9):
        return complex(c)
    return None


def gates_equal_up_to_global_phase(a: np.ndarray, b: np.ndarray) -> bool:
    """True when the two matrices implement the same physical operation."""
    c = global_phase_between(a, b)
    return c is not None and abs(abs(c) - 1.0) < 1e-9


#: Gates with no parameters, keyed by their canonical lower-case name.
FIXED_GATES: dict[str, np.ndarray] = {
    "id": I,
    "x": X,
    "y": Y,
    "z": Z,
    "h": H,
    "s": S,
    "sdg": SDG,
    "t": T,
    "tdg": TDG,
    "sx": SX,
    "cx": CNOT,
    "cnot": CNOT,
    "cz": CZ,
    "swap": SWAP,
    "ccx": CCNOT,
    "ccnot": CCNOT,
    "toffoli": CCNOT,
    "cswap": CSWAP,
    "fredkin": CSWAP,
}

#: Parameterised gate builders, keyed by canonical lower-case name.
GATE_BUILDERS: dict[str, object] = {
    "rx": rx,
    "ry": ry,
    "rz": rz,
    "phase": phase,
    "u1": phase,
    "p": phase,
    "u3": u3,
}


def gate_matrix(name: str, params: Sequence[float]) -> np.ndarray:
    """Dense matrix of the *base* (uncontrolled) gate ``name``."""
    key = name.lower()
    if key in FIXED_GATES:
        if params:
            raise ValueError(f"gate {name!r} takes no parameters")
        return FIXED_GATES[key]
    if key in GATE_BUILDERS:
        return GATE_BUILDERS[key](*params)
    raise KeyError(f"unknown gate {name!r}")
