"""Closed-form unitary oracles for the test suite.

The paper cross-validates its Scaffold programs against implementations in
other quantum programming frameworks.  Those frameworks are not available
offline, so the tests compare a small program's exact unitary
(``Program.unitary()``) against closed-form linear algebra instead: the DFT
matrix for the QFT, or permutation matrices for reversible arithmetic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sim import Statevector

__all__ = [
    "embed_matrix",
    "unitary_from_applications",
    "dft_matrix",
    "permutation_matrix",
    "adder_permutation",
    "modular_multiplication_permutation",
]


def embed_matrix(matrix: np.ndarray, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Embed a k-qubit ``matrix`` acting on ``qubits`` into an ``num_qubits`` unitary."""
    dim = 1 << num_qubits
    result = np.zeros((dim, dim), dtype=complex)
    for column in range(dim):
        state = Statevector.from_int(column, num_qubits)
        state.apply_matrix(matrix, qubits)
        result[:, column] = state.data
    return result


def unitary_from_applications(
    applications: Sequence[tuple[np.ndarray, Sequence[int]]],
    num_qubits: int,
) -> np.ndarray:
    """Compose ``applications`` (earliest first) into one unitary matrix."""
    dim = 1 << num_qubits
    result = np.zeros((dim, dim), dtype=complex)
    for column in range(dim):
        state = Statevector.from_int(column, num_qubits)
        for matrix, qubits in applications:
            state.apply_matrix(matrix, qubits)
        result[:, column] = state.data
    return result


def dft_matrix(num_qubits: int, inverse: bool = False) -> np.ndarray:
    """The discrete Fourier transform matrix the QFT must implement.

    ``QFT |x> = 2^{-n/2} sum_k exp(2 pi i x k / 2^n) |k>``.
    """
    dim = 1 << num_qubits
    omega_sign = -1.0 if inverse else 1.0
    k = np.arange(dim)
    exponent = np.outer(k, k) * (2.0j * np.pi * omega_sign / dim)
    return np.exp(exponent) / np.sqrt(dim)


def permutation_matrix(mapping: Sequence[int]) -> np.ndarray:
    """Unitary permutation matrix sending ``|x>`` to ``|mapping[x]>``."""
    dim = len(mapping)
    if sorted(mapping) != list(range(dim)):
        raise ValueError("mapping is not a permutation")
    matrix = np.zeros((dim, dim), dtype=complex)
    for source, destination in enumerate(mapping):
        matrix[destination, source] = 1.0
    return matrix


def adder_permutation(num_qubits: int, constant: int) -> np.ndarray:
    """Permutation matrix of ``|x> -> |(x + constant) mod 2^n>``."""
    dim = 1 << num_qubits
    return permutation_matrix([(x + constant) % dim for x in range(dim)])


def modular_multiplication_permutation(num_qubits: int, multiplier: int, modulus: int) -> np.ndarray:
    """Permutation of ``|x> -> |multiplier * x mod modulus>`` for x < modulus.

    Values ``x >= modulus`` are left untouched, matching the behaviour of the
    Beauregard in-place multiplier on its valid input domain.
    """
    dim = 1 << num_qubits
    if modulus > dim:
        raise ValueError("modulus does not fit in the register")
    if np.gcd(multiplier, modulus) != 1:
        raise ValueError("multiplier must be coprime with the modulus")
    mapping = list(range(dim))
    for x in range(modulus):
        mapping[x] = (multiplier * x) % modulus
    return permutation_matrix(mapping)

