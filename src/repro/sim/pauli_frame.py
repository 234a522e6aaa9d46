"""Vectorised Pauli frames: trajectory noise for the stabilizer tableau.

Stabilizer states are closed under Pauli channels, so per-gate bit/phase-flip
noise needs no density matrix — but re-walking the tableau once per trajectory
member would still cost ``B`` tableau simulations.  A *Pauli frame* does
better: the tableau is walked **once**, noiselessly, and each trajectory
member carries only the Pauli ``F_m`` accumulated from its sampled noise
events, so that member ``m``'s state is ``F_m |psi>`` with ``|psi>`` the
shared tableau state.

Two facts make the frame free to maintain:

* Clifford gates conjugate Paulis to Paulis: after a gate ``U`` the member
  state ``U F_m |psi> = (U F_m U^dagger) (U |psi>)`` is again a frame over
  the updated tableau, and the conjugation rules are single-bit XORs on the
  frame's ``(x, z)`` bits — O(1) per gate per member, vectorised over the
  whole batch below;
* frames only matter at readout through their X part: measuring qubit ``q``
  of ``F|psi>`` in the Z basis returns the outcome of ``|psi>`` XOR-ed with
  the frame's ``x`` bit (the Z part commutes with the measurement and the
  frame's sign is a global phase), so sampling the noisy ensemble is
  "sample the noiseless tableau, XOR each member's flip mask".

The frames are **bit-packed over the qubit axis**: ``x`` and ``z`` are
``(batch_size, ceil(n/64))`` uint64 word arrays with bit ``q mod 64`` of word
``q // 64`` holding the frame bit on qubit ``q``.  A 4096-member frame set
over 128 qubits is then 64 KiB instead of 1 MiB, and every gate conjugation
is still a single vectorised XOR over the member axis.

Signs are deliberately **not** tracked: a Pauli frame's phase is global per
member and unobservable in any Z-basis readout, which is all the assertion
checker consumes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .kernels import locate_bit

__all__ = ["PauliFrameSet"]

_ONE = np.uint64(1)


class PauliFrameSet:
    """A batch of Pauli frames: per-member packed ``(x, z)`` bit rows.

    ``x[m, q // 64] >> (q % 64) & 1`` / same on ``z`` hold the symplectic
    bits of member ``m``'s frame on qubit ``q``.  All updates are vectorised
    over the member axis.
    """

    __slots__ = ("batch_size", "num_qubits", "num_words", "x", "z")

    def __init__(self, batch_size: int, num_qubits: int):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.batch_size = int(batch_size)
        self.num_qubits = int(num_qubits)
        self.num_words = max((self.num_qubits + 63) // 64, 1)
        self.x = np.zeros((self.batch_size, self.num_words), dtype=np.uint64)
        self.z = np.zeros((self.batch_size, self.num_words), dtype=np.uint64)

    def copy(self) -> "PauliFrameSet":
        clone = PauliFrameSet.__new__(PauliFrameSet)
        clone.batch_size = self.batch_size
        clone.num_qubits = self.num_qubits
        clone.num_words = self.num_words
        clone.x = self.x.copy()
        clone.z = self.z.copy()
        return clone

    @property
    def is_identity(self) -> bool:
        """True when no member carries any Pauli (noiseless so far)."""
        return not (self.x.any() or self.z.any())

    # -- conjugation by Clifford gates (sign-free) ----------------------
    #
    # Each rule is U F U^dagger restricted to the (x, z) bits; the op names
    # and slot convention match repro.sim.clifford decompositions so a
    # tableau op word can drive the frames unchanged.

    def h(self, q: int) -> None:
        w, _, bit = locate_bit(q)
        diff = (self.x[:, w] ^ self.z[:, w]) & bit
        self.x[:, w] ^= diff
        self.z[:, w] ^= diff

    def s(self, q: int) -> None:
        w, _, bit = locate_bit(q)
        self.z[:, w] ^= self.x[:, w] & bit

    def sdg(self, q: int) -> None:
        self.s(q)  # the sign difference between S and Sdg is not tracked

    def xgate(self, q: int) -> None:
        pass  # Pauli conjugation only flips the (untracked) sign

    def ygate(self, q: int) -> None:
        pass

    def zgate(self, q: int) -> None:
        pass

    def cx(self, control: int, target: int) -> None:
        wc, sc, _ = locate_bit(control)
        wt, st, _ = locate_bit(target)
        self.x[:, wt] ^= ((self.x[:, wc] >> sc) & _ONE) << st
        self.z[:, wc] ^= ((self.z[:, wt] >> st) & _ONE) << sc

    def cz(self, control: int, target: int) -> None:
        wc, sc, _ = locate_bit(control)
        wt, st, _ = locate_bit(target)
        self.z[:, wt] ^= ((self.x[:, wc] >> sc) & _ONE) << st
        self.z[:, wc] ^= ((self.x[:, wt] >> st) & _ONE) << sc

    def swap(self, a: int, b: int) -> None:
        wa, sa, _ = locate_bit(a)
        wb, sb, _ = locate_bit(b)
        for array in (self.x, self.z):
            diff = ((array[:, wa] >> sa) ^ (array[:, wb] >> sb)) & _ONE
            array[:, wa] ^= diff << sa
            array[:, wb] ^= diff << sb

    _OPS = {
        "h": h,
        "s": s,
        "sdg": sdg,
        "x": xgate,
        "y": ygate,
        "z": zgate,
        "cx": cx,
        "cz": cz,
        "swap": swap,
    }

    def apply_ops(self, ops: Sequence[tuple], qubits: Sequence[int]) -> None:
        """Conjugate every frame through a recognised tableau op word."""
        for name, *slots in ops:
            self._OPS[name](self, *(qubits[slot] for slot in slots))

    # -- noise injection ------------------------------------------------

    def inject(self, qubit: int, paulis: np.ndarray) -> None:
        """XOR a sampled per-member Pauli (0=I, 1=X, 2=Y, 3=Z) into the frames."""
        paulis = np.asarray(paulis)
        w, shift, _ = locate_bit(qubit)
        self.x[:, w] ^= ((paulis == 1) | (paulis == 2)).astype(np.uint64) << shift
        self.z[:, w] ^= ((paulis == 2) | (paulis == 3)).astype(np.uint64) << shift

    # -- bit access ------------------------------------------------------

    def x_bits(self, qubit: int) -> np.ndarray:
        """The per-member frame ``x`` bit on one qubit, as a 0/1 int64 array."""
        w, shift, _ = locate_bit(qubit)
        return ((self.x[:, w] >> shift) & _ONE).astype(np.int64)

    def z_bits(self, qubit: int) -> np.ndarray:
        """The per-member frame ``z`` bit on one qubit, as a 0/1 int64 array."""
        w, shift, _ = locate_bit(qubit)
        return ((self.z[:, w] >> shift) & _ONE).astype(np.int64)

    def flip_x(self, qubit: int, members: np.ndarray) -> None:
        """XOR an X into the frames of the members selected by a boolean mask."""
        w, shift, _ = locate_bit(qubit)
        self.x[:, w] ^= np.asarray(members, dtype=bool).astype(np.uint64) << shift

    # -- readout --------------------------------------------------------

    def outcome_flips(self, qubits: Sequence[int]) -> np.ndarray:
        """Per-member XOR mask for outcomes measured over ``qubits``.

        Bit ``j`` of ``flips[m]`` is the frame's ``x`` bit on ``qubits[j]``
        (little-endian, matching the backends' outcome encoding).
        """
        flips = np.zeros(self.batch_size, dtype=np.int64)
        for position, qubit in enumerate(qubits):
            flips |= self.x_bits(qubit) << position
        return flips

    def masks(self) -> tuple[list, list]:
        """Per-member symplectic integer masks ``(x_masks, z_masks)``.

        Bit ``q`` of the mask is the frame bit on qubit ``q`` — the input
        :func:`repro.sim.kernels.pauli_mask_kernel` takes when the hybrid
        backend materialises the member states at conversion time.  Returned
        as plain Python ints so widths beyond 63 qubits do not overflow.
        """
        x_words = np.ascontiguousarray(self.x.astype(np.dtype("<u8"), copy=False))
        z_words = np.ascontiguousarray(self.z.astype(np.dtype("<u8"), copy=False))
        x_masks = [
            int.from_bytes(x_words[member].tobytes(), "little")
            for member in range(self.batch_size)
        ]
        z_masks = [
            int.from_bytes(z_words[member].tobytes(), "little")
            for member in range(self.batch_size)
        ]
        return x_masks, z_masks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PauliFrameSet(batch_size={self.batch_size}, "
            f"num_qubits={self.num_qubits}, identity={self.is_identity})"
        )
