"""Pauli-string algebra for qubit observables.

A :class:`PauliString` is a tensor product of single-qubit Pauli operators
(``I``, ``X``, ``Y``, ``Z``) with a complex coefficient; a :class:`PauliSum`
is a linear combination of Pauli strings.  These are the data structures the
Jordan-Wigner transform produces, the Trotterisation consumes, and — since
the observables subsystem — the quantities :class:`AssertObservable`
breakpoints estimate.

The symplectic ``(x, z)`` mask representation (bit ``q`` of ``x`` set when
the operator on qubit ``q`` is ``X`` or ``Y``, bit ``q`` of ``z`` set for
``Z`` or ``Y``) matches :meth:`repro.sim.pauli_frame.PauliFrameSet.masks`
and the stabilizer tableau's row encoding, so strings flow into the packed
kernels without conversion glue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..sim import gates as _gates
from ..sim.statevector import Statevector

__all__ = ["PauliString", "PauliSum"]

_PAULI_MATRICES = {
    "I": _gates.I,
    "X": _gates.X,
    "Y": _gates.Y,
    "Z": _gates.Z,
}

#: Single-qubit Pauli multiplication table: (a, b) -> (phase, product).
_PRODUCT_TABLE = {
    ("I", "I"): (1.0, "I"),
    ("I", "X"): (1.0, "X"),
    ("I", "Y"): (1.0, "Y"),
    ("I", "Z"): (1.0, "Z"),
    ("X", "I"): (1.0, "X"),
    ("Y", "I"): (1.0, "Y"),
    ("Z", "I"): (1.0, "Z"),
    ("X", "X"): (1.0, "I"),
    ("Y", "Y"): (1.0, "I"),
    ("Z", "Z"): (1.0, "I"),
    ("X", "Y"): (1.0j, "Z"),
    ("Y", "X"): (-1.0j, "Z"),
    ("Y", "Z"): (1.0j, "X"),
    ("Z", "Y"): (-1.0j, "X"),
    ("Z", "X"): (1.0j, "Y"),
    ("X", "Z"): (-1.0j, "Y"),
}

#: Inverse of the symplectic bit encoding: (x bit, z bit) -> operator.
_MASK_OPS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


@dataclass(frozen=True)
class PauliString:
    """A coefficient times a tensor product of Pauli operators.

    ``ops[i]`` is the operator acting on qubit ``i`` (little-endian, matching
    the simulator).  The identity on every qubit is written ``ops = ("I",) * n``.
    """

    ops: tuple[str, ...]
    coefficient: complex = 1.0

    def __post_init__(self) -> None:
        for op in self.ops:
            if op not in _PAULI_MATRICES:
                raise ValueError(f"invalid Pauli label {op!r}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_label(cls, label: str, coefficient: complex = 1.0) -> "PauliString":
        """Build from a label string, **qubit 0 first** (e.g. ``"XZI"``)."""
        return cls(ops=tuple(label.upper()), coefficient=coefficient)

    @classmethod
    def from_terms(
        cls, terms: Mapping[int, str], num_qubits: int, coefficient: complex = 1.0
    ) -> "PauliString":
        """Build from a sparse mapping ``qubit -> operator``."""
        ops = ["I"] * num_qubits
        for qubit, op in terms.items():
            if not 0 <= qubit < num_qubits:
                raise ValueError(f"qubit {qubit} out of range")
            ops[qubit] = op.upper()
        return cls(ops=tuple(ops), coefficient=coefficient)

    @classmethod
    def identity(cls, num_qubits: int, coefficient: complex = 1.0) -> "PauliString":
        return cls(ops=("I",) * num_qubits, coefficient=coefficient)

    @classmethod
    def from_masks(
        cls,
        x_mask: int,
        z_mask: int,
        num_qubits: int,
        coefficient: complex = 1.0,
    ) -> "PauliString":
        """Build from symplectic bit masks (bit ``q`` = qubit ``q``).

        The inverse of :meth:`symplectic_masks`: ``(1, 0)`` is ``X``,
        ``(0, 1)`` is ``Z`` and ``(1, 1)`` is ``Y`` (phase-free encoding,
        matching the tableau rows and Pauli frames).
        """
        if x_mask >> num_qubits or z_mask >> num_qubits:
            raise ValueError("mask bits set beyond num_qubits")
        ops = tuple(
            _MASK_OPS[((x_mask >> q) & 1, (z_mask >> q) & 1)]
            for q in range(num_qubits)
        )
        return cls(ops=ops, coefficient=coefficient)

    # ------------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return len(self.ops)

    @property
    def is_identity(self) -> bool:
        return all(op == "I" for op in self.ops)

    def label(self) -> str:
        """Label string with qubit 0 first."""
        return "".join(self.ops)

    def support(self) -> list[int]:
        """Qubits on which the string acts non-trivially."""
        return [i for i, op in enumerate(self.ops) if op != "I"]

    def weight(self) -> int:
        return len(self.support())

    def symplectic_masks(self) -> tuple[int, int]:
        """Phase-free symplectic masks ``(x_mask, z_mask)``.

        Bit ``q`` of ``x_mask`` is set when the operator on qubit ``q`` is
        ``X`` or ``Y``; bit ``q`` of ``z_mask`` for ``Z`` or ``Y`` — the
        same convention as :meth:`PauliFrameSet.masks` and the stabilizer
        tableau rows, as plain Python ints so widths beyond 63 qubits do
        not overflow.  The coefficient is not encoded.
        """
        x_mask = 0
        z_mask = 0
        for q, op in enumerate(self.ops):
            if op in ("X", "Y"):
                x_mask |= 1 << q
            if op in ("Z", "Y"):
                z_mask |= 1 << q
        return x_mask, z_mask

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def __mul__(self, other: "PauliString | complex | float | int"):
        if isinstance(other, PauliString):
            if other.num_qubits != self.num_qubits:
                raise ValueError("Pauli strings act on different numbers of qubits")
            phase = 1.0 + 0.0j
            ops = []
            for a, b in zip(self.ops, other.ops):
                term_phase, product = _PRODUCT_TABLE[(a, b)]
                phase *= term_phase
                ops.append(product)
            return PauliString(
                ops=tuple(ops),
                coefficient=self.coefficient * other.coefficient * phase,
            )
        return PauliString(ops=self.ops, coefficient=self.coefficient * complex(other))

    def __rmul__(self, other: complex | float | int) -> "PauliString":
        return self * other

    def __neg__(self) -> "PauliString":
        return self * -1.0

    def __add__(self, other: "PauliString | PauliSum") -> "PauliSum":
        return PauliSum([self]) + other

    def commutes_with(self, other: "PauliString") -> bool:
        """True when the two strings commute as operators."""
        anti = 0
        for a, b in zip(self.ops, other.ops):
            if a != "I" and b != "I" and a != b:
                anti += 1
        return anti % 2 == 0

    def qubit_wise_commutes_with(self, other: "PauliString") -> bool:
        """True when the strings commute *qubit by qubit* (TPB-compatible).

        Stricter than :meth:`commutes_with`: on every qubit where both act
        non-trivially the operators must be equal, which is exactly the
        condition under which both strings are diagonal in one shared
        tensor-product measurement basis.
        """
        if other.num_qubits != self.num_qubits:
            raise ValueError("Pauli strings act on different numbers of qubits")
        for a, b in zip(self.ops, other.ops):
            if a != "I" and b != "I" and a != b:
                return False
        return True

    def hermitian_conjugate(self) -> "PauliString":
        return PauliString(ops=self.ops, coefficient=np.conj(self.coefficient))

    # ------------------------------------------------------------------
    # Dense representations
    # ------------------------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Dense matrix (little-endian, qubit 0 = least significant)."""
        return self.coefficient * _gates.kron_all(
            [_PAULI_MATRICES[op] for op in self.ops]
        )

    def expectation(self, state: Statevector) -> complex:
        if state.num_qubits != self.num_qubits:
            raise ValueError("state and Pauli string sizes differ")
        support = self.support()
        if not support:
            return complex(self.coefficient)
        matrix = _gates.kron_all([_PAULI_MATRICES[self.ops[q]] for q in support])
        return self.coefficient * state.expectation_value(matrix, support)

    def __repr__(self) -> str:
        return f"PauliString({self.label()!r}, coefficient={self.coefficient})"


class PauliSum:
    """A linear combination of Pauli strings (a qubit Hamiltonian)."""

    def __init__(self, terms: Iterable[PauliString] = ()):
        self._terms: list[PauliString] = []
        for term in terms:
            self._append(term)

    def _append(self, term: PauliString) -> None:
        if self._terms and term.num_qubits != self.num_qubits:
            raise ValueError("all terms must act on the same number of qubits")
        self._terms.append(term)

    # ------------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        if not self._terms:
            raise ValueError("empty PauliSum has no qubit count")
        return self._terms[0].num_qubits

    @property
    def terms(self) -> list[PauliString]:
        return list(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self):
        return iter(self._terms)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def __add__(self, other: "PauliSum | PauliString") -> "PauliSum":
        if isinstance(other, PauliString):
            other = PauliSum([other])
        return PauliSum(self._terms + other._terms)

    def __sub__(self, other: "PauliSum | PauliString") -> "PauliSum":
        if isinstance(other, PauliString):
            other = PauliSum([other])
        negated = [term * -1.0 for term in other._terms]
        return PauliSum(self._terms + negated)

    def __mul__(self, scalar: complex | float | int) -> "PauliSum":
        return PauliSum([term * scalar for term in self._terms])

    __rmul__ = __mul__

    def simplify(self, atol: float = 1e-12) -> "PauliSum":
        """Combine identical strings and drop negligible coefficients."""
        combined: dict[tuple[str, ...], complex] = {}
        for term in self._terms:
            combined[term.ops] = combined.get(term.ops, 0.0) + term.coefficient
        return PauliSum(
            [
                PauliString(ops=ops, coefficient=coefficient)
                for ops, coefficient in sorted(combined.items())
                if abs(coefficient) > atol
            ]
        )

    def identity_coefficient(self) -> complex:
        """Coefficient of the all-identity term (0 when absent)."""
        total = 0.0 + 0.0j
        for term in self._terms:
            if term.is_identity:
                total += term.coefficient
        return complex(total)

    def non_identity_terms(self) -> list[PauliString]:
        return [term for term in self._terms if not term.is_identity]

    def is_hermitian(self, atol: float = 1e-10) -> bool:
        simplified = self.simplify()
        return all(abs(term.coefficient.imag) <= atol for term in simplified)

    # ------------------------------------------------------------------
    # Dense representations
    # ------------------------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        dim = 1 << self.num_qubits
        matrix = np.zeros((dim, dim), dtype=complex)
        for term in self._terms:
            matrix += term.to_matrix()
        return matrix

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues of the (Hermitian) operator, ascending."""
        return np.linalg.eigvalsh(self.to_matrix())

    def expectation(self, state: Statevector) -> complex:
        return complex(sum(term.expectation(state) for term in self._terms))

    def ground_state_energy(self) -> float:
        return float(self.eigenvalues()[0])

    def __repr__(self) -> str:
        return f"PauliSum({len(self._terms)} terms, {self.num_qubits} qubits)"

    def describe(self, precision: int = 6) -> str:
        lines = []
        for term in self.simplify().terms:
            coefficient = term.coefficient
            if abs(coefficient.imag) < 1e-12:
                rendered = f"{coefficient.real:+.{precision}f}"
            else:
                rendered = f"({coefficient:+.{precision}f})"
            lines.append(f"{rendered} * {term.label()}")
        return "\n".join(lines)
