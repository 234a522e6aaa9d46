"""Vectorised gate-application kernels shared by the simulation backends.

The seed implementation applied a controlled gate by materialising the dense
``2 ** (controls + targets)``-dimensional controlled unitary and pushing it
through the generic tensor-contraction path.  The kernels below instead touch
only the amplitudes that the gate can change:

* a controlled gate acts as the *base* matrix on the control-satisfied
  subspace (all control bits 1) and as the identity everywhere else, so the
  kernel gathers exactly the ``2 ** targets``-sized amplitude groups of that
  subspace, multiplies them by the base matrix, and scatters them back;
* 1-qubit gates use a strided-view fast path with no index arrays at all;
* small multi-qubit gates use the same gather/scatter machinery with an
  all-indices base set;
* diagonal gates — every off-diagonal entry exactly zero, such as ``z``,
  ``s``, ``t``, ``rz`` and the ``phase`` gates that make up most of the
  arithmetic circuits — skip both: for each target value ``v`` whose
  diagonal entry is not 1, the amplitudes with every control 1 and the
  targets equal to ``v`` form one basic-indexed strided view of the state
  reshaped to ``(2,) * n``, which is multiplied in place by that entry.
  Both entry points route such a gate there first.

:func:`apply_matrix` and :func:`apply_controlled` are the only two gate entry
points.  They take ``data`` as one flat ``2**n`` state or as a C-contiguous
``(B, 2**n)`` batch, mutate it in place and return it; the statevector,
density (both sides, as a ``2n``-qubit state) and trajectory (one batch of
member rows) backends all call them.  ``data[..., i]`` is the amplitude of
basis state ``|i>`` with bit ``j`` of ``i`` holding the value of qubit ``j``
(little-endian), and ``qubits[0]`` is the least significant operand of
``matrix`` — the same conventions as :mod:`repro.sim.gates` and
:class:`repro.sim.statevector.Statevector`.

The module also holds the other decisions every dense backend shares: the
operand checks (:func:`validated_qubits`, :func:`validated_matrix`), the
outcome draw and the collapse onto a measured outcome (:func:`outcome_mask`,
:func:`project`).  The draw is two steps: :func:`outcome_cdf` normalises a
distribution into its cumulative form, and :func:`draw_from_cdf` maps
uniforms onto it, consuming the same uniforms and returning the same
indices as ``Generator.choice(p=...)``.  :func:`draw_outcomes` runs both in
a row for a live state; the plan cache records one CDF per breakpoint, so
a snapshot-served run calls only the second step.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import gates as _gates

__all__ = [
    "apply_matrix",
    "apply_controlled",
    "apply_pauli_batched",
    "validated_qubits",
    "validated_matrix",
    "outcome_cdf",
    "draw_from_cdf",
    "draw_outcomes",
    "outcome_mask",
    "project",
    "pauli_mask_kernel",
    "marginal_probabilities",
    "locate_bit",
]

#: Above this many target qubits the gather loop (2**k python iterations)
#: stops paying for itself and the tensor-contraction path wins.
_GATHER_MAX_TARGETS = 8


# ---------------------------------------------------------------------------
# Packed-word addressing (Pauli frames)
# ---------------------------------------------------------------------------
#
# Pauli frames store one symplectic bit per qubit as uint64 words (bit j of
# word w = qubit 64 * w + j, little-endian).  The stabilizer tableau needs no
# word arrays: its columns are arbitrary-precision Python ints (bit i = row
# i), and its measurement reads are bit-sliced over those ints.

_ONE64 = np.uint64(1)


def locate_bit(index: int) -> tuple[int, np.uint64, np.uint64]:
    """(word, in-word shift, single-bit mask) of entry ``index`` in packed words."""
    shift = np.uint64(index & 63)
    return index >> 6, shift, _ONE64 << shift


def _subspace_indices(
    num_qubits: int,
    zero_bits: Sequence[int],
    one_bits: Sequence[int] = (),
) -> np.ndarray:
    """Indices of basis states with the given bits pinned to 0 / 1.

    Built directly by spreading an ``arange`` over the free bit positions —
    O(2^(n - pinned)) work — rather than boolean-masking the full
    ``2^n``-sized index range, so a gate with many controls costs work
    proportional to the subspace it touches.
    """
    pinned = sorted([*zero_bits, *one_bits])
    base = np.arange(1 << (num_qubits - len(pinned)))
    # Insert a 0 bit at each pinned position, lowest first so later
    # insertions see already-spread lower bits.
    for qubit in pinned:
        low = base & ((1 << qubit) - 1)
        base = ((base >> qubit) << (qubit + 1)) | low
    for qubit in one_bits:
        base |= 1 << qubit
    return base


def _batched_base(data: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Tile per-state amplitude-group indices across a stacked batch.

    A ``(B, 2**n)`` batch flattened to ``B * 2**n`` entries places member
    ``m`` at offset ``m * 2**n``; gate operands only address the low ``n``
    bits, so adding the member offsets to the single-state base indices
    makes the gather kernel batch-aware for free.  A flat state keeps
    ``base`` unchanged.
    """
    if data.ndim == 1:
        return base
    offsets = np.arange(data.shape[0], dtype=base.dtype) * data.shape[1]
    return (offsets[:, None] + base[None, :]).reshape(-1)


def _gather_apply(
    data: np.ndarray,
    matrix: np.ndarray,
    targets: Sequence[int],
    base: np.ndarray,
) -> None:
    """Apply ``matrix`` on ``targets`` over every amplitude group in ``base``.

    ``base`` lists the basis indices with all target bits 0 (one per group);
    group member ``v`` lives at ``base + offset(v)`` where ``offset`` places
    bit ``j`` of ``v`` at qubit ``targets[j]``.  ``data`` is one flat state
    or a ``(B, 2**n)`` batch; each member's groups get a matrix product of
    their own, because BLAS picks its kernel by the column count and one
    product over the whole batch could round a member differently from the
    same state on its own.
    """
    k = len(targets)
    offsets = [
        sum(((value >> j) & 1) << targets[j] for j in range(k))
        for value in range(1 << k)
    ]
    indices = _batched_base(data, base)
    flat = data.reshape(-1)
    columns = np.empty((1 << k, indices.shape[0]), dtype=data.dtype)
    for value, offset in enumerate(offsets):
        columns[value] = flat[indices + offset]
    by_member = columns.reshape(1 << k, -1, base.shape[0]).swapaxes(0, 1)
    columns = (matrix @ by_member).swapaxes(0, 1).reshape(1 << k, -1)
    for value, offset in enumerate(offsets):
        flat[indices + offset] = columns[value]


def _diagonal_of(matrix: np.ndarray) -> np.ndarray | None:
    """The diagonal of ``matrix`` when every off-diagonal entry is exactly zero."""
    diagonal = matrix.diagonal()
    if np.count_nonzero(matrix) == np.count_nonzero(diagonal):
        return diagonal
    return None


def _apply_diagonal(
    data: np.ndarray,
    num_qubits: int,
    diagonal: np.ndarray,
    controls: Sequence[int],
    targets: Sequence[int],
) -> None:
    """Multiply, in place, each amplitude with every control 1 and the targets
    equal to ``v`` by ``diagonal[v]``.

    ``data`` is one flat state or a ``(B, 2**n)`` batch; either reshapes to
    ``(B,) + (2,) * n`` with qubit ``q`` on axis ``n - q``.  Pinning 1 on each
    control axis and ``v``'s bits on the target axes selects a strided view,
    so the kernel needs no index arrays, and entries equal to 1 are skipped.
    """
    tensor = data.reshape((-1,) + (2,) * num_qubits)
    index: list = [slice(None)] * (num_qubits + 1)
    for qubit in controls:
        index[num_qubits - qubit] = 1
    for value, factor in enumerate(diagonal):
        if factor == 1:
            continue
        for bit, qubit in enumerate(targets):
            index[num_qubits - qubit] = (value >> bit) & 1
        tensor[tuple(index)] *= factor


def _apply_1q_inplace(data: np.ndarray, matrix: np.ndarray, qubit: int) -> None:
    """Strided-view fast path for single-qubit gates (no index arrays)."""
    view = data.reshape(-1, 2, 1 << qubit)
    lower = view[:, 0, :].copy()
    upper = view[:, 1, :]
    view[:, 0, :] = matrix[0, 0] * lower + matrix[0, 1] * upper
    view[:, 1, :] = matrix[1, 0] * lower + matrix[1, 1] * upper


def _apply_dense_inplace(
    data: np.ndarray,
    num_qubits: int,
    matrix: np.ndarray,
    qubits: Sequence[int],
) -> None:
    """Generic tensor-contraction path (used for wide operand lists)."""
    k = len(qubits)
    tensor = data.reshape([2] * num_qubits)
    # Axis of qubit q is num_qubits - 1 - q; moving the operand axes (most
    # significant first) to the front makes the front index little-endian.
    source_axes = [num_qubits - 1 - q for q in reversed(qubits)]
    tensor = np.moveaxis(tensor, source_axes, range(k))
    shape_rest = tensor.shape[k:]
    tensor = tensor.reshape(1 << k, -1)
    tensor = matrix @ tensor
    tensor = tensor.reshape([2] * k + list(shape_rest))
    tensor = np.moveaxis(tensor, range(k), source_axes)
    data[:] = tensor.reshape(-1)


def apply_matrix(
    data: np.ndarray,
    num_qubits: int,
    matrix: np.ndarray,
    qubits: Sequence[int],
) -> np.ndarray:
    """Apply a ``2**k x 2**k`` unitary to ``qubits`` of ``data`` in place.

    ``data`` is one flat state or a C-contiguous ``(B, 2**n)`` batch; on a
    batch (the trajectory engine's hot path: one plan walk carries the whole
    ensemble) each gate is one vectorised call over every member.
    """
    diagonal = _diagonal_of(matrix)
    if diagonal is not None:
        _apply_diagonal(data, num_qubits, diagonal, (), qubits)
        return data
    k = len(qubits)
    if k == 1:
        # The strided 1q view decomposes B * 2**n cleanly because 2**(q+1)
        # divides each member's 2**n block.
        _apply_1q_inplace(data, matrix, qubits[0])
    elif k <= _GATHER_MAX_TARGETS:
        base = _subspace_indices(num_qubits, zero_bits=qubits)
        _gather_apply(data, matrix, qubits, base)
    else:
        for state in data.reshape(-1, 1 << num_qubits):
            _apply_dense_inplace(state, num_qubits, matrix, qubits)
    return data


def apply_controlled(
    data: np.ndarray,
    num_qubits: int,
    matrix: np.ndarray,
    controls: Sequence[int],
    targets: Sequence[int],
) -> np.ndarray:
    """Apply ``matrix`` on ``targets`` where every control bit is 1, in place.

    This is the index-masked kernel: the dense controlled unitary is never
    materialised, and amplitudes outside the control-satisfied subspace are
    never touched (they are the identity part of the controlled gate).
    ``data`` is one flat state or a C-contiguous ``(B, 2**n)`` batch.
    """
    if not controls:
        return apply_matrix(data, num_qubits, matrix, targets)
    diagonal = _diagonal_of(matrix)
    if diagonal is not None:
        _apply_diagonal(data, num_qubits, diagonal, controls, targets)
        return data
    if len(targets) > _GATHER_MAX_TARGETS:  # pragma: no cover - unused width
        full = _gates.controlled(matrix, num_controls=len(controls))
        return apply_matrix(data, num_qubits, full, list(controls) + list(targets))
    base = _subspace_indices(num_qubits, zero_bits=targets, one_bits=controls)
    _gather_apply(data, matrix, targets, base)
    return data


def marginal_probabilities(
    probabilities: np.ndarray,
    num_qubits: int,
    qubits: Sequence[int],
) -> np.ndarray:
    """Marginal distribution over ``qubits`` of a dense probability vector.

    ``probabilities[i]`` is the probability of basis state ``|i>`` (bit ``j``
    of ``i`` = qubit ``j``).  The returned array has length
    ``2 ** len(qubits)`` and index ``v`` holds the probability that the listed
    qubits, read little-endian in the given order, encode ``v``.  Both the
    statevector backend (on ``|amplitude|^2``) and the density-matrix backend
    (on the real diagonal of rho) reduce their readout to this kernel.
    Like the gate kernels it trusts ``qubits``: each backend checks them
    once, with :func:`validated_qubits`, at its public method.
    """
    tensor = probabilities.reshape([2] * num_qubits)
    keep_axes = [num_qubits - 1 - q for q in reversed(qubits)]
    other_axes = tuple(a for a in range(num_qubits) if a not in keep_axes)
    if other_axes:
        tensor = tensor.sum(axis=other_axes)
    # Remaining axes are in ascending original order; re-order them so the
    # first axis is the most significant of the requested qubits.
    remaining = [a for a in range(num_qubits) if a in keep_axes]
    order = [remaining.index(a) for a in keep_axes]
    tensor = np.transpose(tensor, order)
    return tensor.reshape(-1)


def validated_qubits(qubits: Sequence[int] | int, num_qubits: int) -> list[int]:
    """``qubits`` (or one qubit index) as distinct indices below ``num_qubits``."""
    if isinstance(qubits, (int, np.integer)):
        qubits = [int(qubits)]
    qubit_list = [int(q) for q in qubits]
    if len(set(qubit_list)) != len(qubit_list):
        raise ValueError(f"duplicate qubits in {qubit_list}")
    for q in qubit_list:
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit index {q} out of range for {num_qubits} qubits")
    return qubit_list


def validated_matrix(matrix: np.ndarray, num_targets: int) -> np.ndarray:
    """``matrix`` as a complex array, checked to act on ``num_targets`` qubits."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (1 << num_targets, 1 << num_targets):
        raise ValueError(
            f"matrix of shape {matrix.shape} does not act on {num_targets} qubit(s)"
        )
    return matrix


def outcome_cdf(probs: np.ndarray) -> np.ndarray:
    """Normalised cumulative distribution of ``probs``, for :func:`draw_from_cdf`.

    Normalises and accumulates exactly as ``Generator.choice(p=...)`` does,
    and rejects what it rejects: non-finite, negative or zero-sum input.
    """
    p = probs / probs.sum()
    if not p.size or not np.isfinite(p).all():
        raise ValueError("probabilities contain NaN or sum to zero")
    if (p < 0).any():
        raise ValueError("probabilities are not non-negative")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def draw_from_cdf(
    cdf: np.ndarray, rng: np.random.Generator, shots: int | None = None
) -> "int | np.ndarray":
    """One outcome (an ``int``), or ``shots`` of them, drawn from ``cdf``.

    The same uniforms and indices as ``rng.choice(len(cdf), size=shots,
    p=...)``, so a CDF recorded once can serve any number of seeded draws.
    """
    outcomes = cdf.searchsorted(rng.random(shots), side="right")
    return int(outcomes) if shots is None else outcomes


def draw_outcomes(
    probs: np.ndarray, rng: np.random.Generator, shots: int | None = None
) -> "int | np.ndarray":
    """Normalise ``probs`` and draw one outcome, or ``shots`` of them.

    Every backend's readout draws through this one call shape
    (:func:`outcome_cdf` then :func:`draw_from_cdf`), which keeps seeded
    streams aligned across backends.
    """
    return draw_from_cdf(outcome_cdf(probs), rng, shots)


def outcome_mask(num_qubits: int, qubits: Sequence[int], value: int) -> np.ndarray:
    """Which of the ``2**n`` basis states have ``qubits`` encoding ``value``."""
    indices = np.arange(1 << num_qubits)
    mask = np.ones(1 << num_qubits, dtype=bool)
    for position, qubit in enumerate(qubits):
        mask &= ((indices >> qubit) & 1) == ((value >> position) & 1)
    return mask


def project(
    state: np.ndarray, num_qubits: int, qubits: Sequence[int], value: int
) -> np.ndarray:
    """``state`` collapsed onto ``qubits == value`` and renormalised (a copy)."""
    projected = np.where(outcome_mask(num_qubits, qubits, value), state, 0.0)
    norm = np.linalg.norm(projected)
    if norm < 1e-15:
        raise ValueError(
            f"outcome {value} on qubits {list(qubits)} has zero probability"
        )
    return projected / norm


def apply_pauli_batched(
    batch: np.ndarray, qubit: int, paulis: np.ndarray
) -> np.ndarray:
    """Apply a per-member single-qubit Pauli (0=I, 1=X, 2=Y, 3=Z) to ``qubit``.

    One trajectory noise event: member ``m`` receives the sampled Pauli
    ``paulis[m]``.  ``Y`` is applied as ``i * X * Z`` so per-member global
    phases stay exact (they are unobservable but keep trajectory states
    bit-comparable with reference simulations).
    """
    paulis = np.asarray(paulis)
    view = batch.reshape(batch.shape[0], -1, 2, 1 << qubit)
    z_members = (paulis == 2) | (paulis == 3)
    if z_members.any():
        view[z_members, :, 1, :] *= -1.0
    x_members = (paulis == 1) | (paulis == 2)
    if x_members.any():
        view[x_members] = view[x_members][:, :, ::-1, :]
    y_members = paulis == 2
    if y_members.any():
        batch[y_members] *= 1j
    return batch


def _index_parity(values: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each integer (vectorised popcount & 1)."""
    parity = values.astype(np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        parity = parity ^ (parity >> shift)
    return parity & 1


def pauli_mask_kernel(
    data: np.ndarray, x_mask: int, z_mask: int
) -> np.ndarray:
    """Apply the Pauli string with symplectic masks to a dense state.

    Returns a **new** array: ``out[j ^ x_mask] = i^y (-1)^parity(z & j)
    data[j]`` where ``y`` counts the qubits with both masks set (``Y = iXZ``
    per qubit).  Used by the hybrid backend to materialise per-member
    trajectory states from the tableau state plus each member's Pauli frame.
    """
    indices = np.arange(data.shape[0])
    signs = 1.0 - 2.0 * _index_parity(indices & np.int64(z_mask))
    y_count = int(bin(x_mask & z_mask).count("1"))
    out = np.empty_like(data)
    out[indices ^ x_mask] = (1j ** y_count) * signs * data
    return out
