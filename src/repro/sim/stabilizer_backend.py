"""Stabilizer-tableau simulation backend (Aaronson–Gottesman).

:class:`StabilizerBackend` honours the full
:class:`~repro.sim.backend.SimulationBackend` contract — ``apply_matrix`` /
``apply_controlled`` / ``probabilities`` / ``sample`` / ``measure`` /
``snapshot`` / ``restore`` / ``gates_applied`` — for **Clifford** programs
(H/S/Sdg/X/Y/Z/CX/CZ/SWAP and any matrix spelling of those, recognised by
:mod:`repro.sim.clifford`), in O(n²) per gate instead of the statevector's
O(2ⁿ).  Registered as ``backend="stabilizer"``, which is what puts the
Clifford-heavy breakpoint workloads (GHZ chains, teleportation circuits,
repetition-code syndrome extraction) at 20–50+ qubits within reach of the
assertion checker.

Representation
--------------
The state is the standard 2n x (2n+1) binary tableau: rows 0..n-1 are
*destabilizer* generators, rows n..2n-1 *stabilizer* generators, each row an
``(x | z | r)`` bit-vector encoding the Pauli ``(-1)^r  Π_j P_j`` with
``P_j`` one of I/X/Y/Z per the ``(x_j, z_j)`` pair.  Gates are column
updates; measurement is the Aaronson–Gottesman procedure (deterministic
outcomes are the sign of a product of stabilizers, random outcomes collapse
one stabilizer).

The tableau has **one layout** (see :class:`_Tableau`): each qubit's ``x``
and ``z`` columns are arbitrary-width Python integers (bit ``i`` = row
``i``), so every gate is a handful of O(n/64) word-wise integer ops.
Measurement works on the same columns, bit-sliced over rows: a random qubit
is a one-shift test, a row product's sign is summed column by column, and
``collapse`` runs every ``rowsum`` at once with the per-row phase exponents
in a bit-sliced mod-4 counter — no transpose into rows.  The historical
one-byte-per-bit engine survives as :class:`_UnpackedTableau` — the
correctness oracle for the column engine's property tests and the baseline
for ``benchmarks/bench_width.py``.

Readout
-------
``probabilities(qubits)`` walks a *branching* measurement tree on tableau
copies: each qubit in turn is either deterministic (no branch) or an exact
50/50 coin (two forced-outcome branches), so the returned distribution is
exact with dyadic entries and the cost is O(support x k x n²), independent
of 2ⁿ.  ``sample`` then draws from that dense marginal through the same
:func:`~repro.sim.kernels.draw_outcomes` call as the statevector backend,
keeping seeded RNG streams aligned across backends in the executor's
``"sample"`` mode.

Snapshots are tuples of the column integers — immutable, so the incremental
executor's checkpoint-per-breakpoint walk (and the ``PlanCache``'s shared
``SnapshotSet``s) share unchanged columns copy-on-write instead of deep
copying O(n²) bytes per breakpoint.

``to_statevector`` reconstructs the dense state (for the hybrid backend's
one-time tableau→statevector conversion) by projecting a support basis state
with every stabilizer: ``|ψ><ψ| = Π_i (I + S_i)/2``, so applying the
projectors to any basis state of non-zero overlap and normalising yields the
state exactly, up to an (irrelevant) global phase.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .backend import SimulationBackend, StatevectorBackend
from .registry import BackendCapabilities, register_backend, resolve_streams
from .clifford import (
    NotCliffordGateError,
    decompose_controlled_gate,
    decompose_gate,
)
from .kernels import (
    draw_outcomes,
    outcome_cdf,
    pauli_mask_kernel,
    validated_matrix,
    validated_qubits,
)
from .measurement import ReadoutErrorModel
from .noise import KrausChannel, NoiseModel
from .pauli_frame import PauliFrameSet
from .statevector import Statevector, _as_rng
from .trajectory_backend import MemberNoise, TrajectoryNoiseBackend

__all__ = [
    "StabilizerBackend",
    "HybridCliffordBackend",
    "NotCliffordGateError",
    "tableau_outcome_distribution",
    "tableau_pauli_expectation",
]

#: Widest measured group the backend will materialise as a dense marginal.
_DENSE_LIMIT = 20

#: Widest tableau ``to_statevector`` will densify (2**24 amplitudes ≈ 256 MB)
#: — the hybrid backend's conversion ceiling, matching the practical limit of
#: the dense statevector backend itself.
_CONVERSION_LIMIT = 24


class _UnpackedTableau:
    """The historical one-byte-per-bit tableau (reference engine).

    Kept as the column engine's correctness oracle: it shares the gate /
    ``deterministic_outcome`` / ``collapse`` / ``copy`` duck-type with
    :class:`_Tableau`, so :func:`tableau_outcome_distribution` and the
    property tests in ``tests/test_packed_tableau.py`` can drive both and
    demand identical results, and ``benchmarks/bench_width.py`` uses it as
    the pre-packing throughput baseline.
    """

    __slots__ = ("n", "x", "z", "r")

    def __init__(self, num_qubits: int):
        n = int(num_qubits)
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        self.x[np.arange(n), np.arange(n)] = 1  # destabilizer i = X_i
        self.z[n + np.arange(n), np.arange(n)] = 1  # stabilizer i = Z_i

    def copy(self) -> "_UnpackedTableau":
        clone = _UnpackedTableau.__new__(_UnpackedTableau)
        clone.n = self.n
        clone.x = self.x.copy()
        clone.z = self.z.copy()
        clone.r = self.r.copy()
        return clone

    # -- gates ----------------------------------------------------------

    def h(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def s(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def sdg(self, q: int) -> None:
        self.s(q)
        self.zgate(q)  # Sdg = Z . S

    def xgate(self, q: int) -> None:
        self.r ^= self.z[:, q]

    def ygate(self, q: int) -> None:
        self.r ^= self.x[:, q] ^ self.z[:, q]

    def zgate(self, q: int) -> None:
        self.r ^= self.x[:, q]

    def cx(self, control: int, target: int) -> None:
        self.r ^= (
            self.x[:, control]
            & self.z[:, target]
            & (self.x[:, target] ^ self.z[:, control] ^ 1)
        )
        self.x[:, target] ^= self.x[:, control]
        self.z[:, control] ^= self.z[:, target]

    def cz(self, control: int, target: int) -> None:
        self.h(target)
        self.cx(control, target)
        self.h(target)

    def swap(self, a: int, b: int) -> None:
        for array in (self.x, self.z):
            array[:, a], array[:, b] = array[:, b].copy(), array[:, a].copy()

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
        """Run a recognised op word; slots index into ``qubits``."""
        for name, *slots in ops:
            self._OPS[name](self, *(qubits[slot] for slot in slots))

    # -- row arithmetic -------------------------------------------------

    @staticmethod
    def _g_sum(
        x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray
    ) -> np.ndarray:
        """Summed Aaronson–Gottesman ``g`` function over the qubit axis.

        ``g`` is the exponent of ``i`` produced by multiplying the
        single-qubit Paulis ``(x1, z1) * (x2, z2)``; the sum over qubits
        always lands on 0 or 2 (mod 4) for commuting updates.  Broadcasts,
        so ``x2``/``z2`` may be a single row or a stack of rows.
        """
        return np.where(
            (x1 == 1) & (z1 == 1),
            z2 - x2,
            np.where(
                (x1 == 1) & (z1 == 0),
                z2 * (2 * x2 - 1),
                np.where((x1 == 0) & (z1 == 1), x2 * (1 - 2 * z2), 0),
            ),
        ).sum(axis=-1)

    def _rowsum_into(self, rows: np.ndarray, source: int) -> None:
        """Left-multiply each row in ``rows`` by row ``source`` (vectorised)."""
        g = self._g_sum(
            self.x[source].astype(np.int64),
            self.z[source].astype(np.int64),
            self.x[rows].astype(np.int64),
            self.z[rows].astype(np.int64),
        )
        total = 2 * self.r[rows].astype(np.int64) + 2 * int(self.r[source]) + g
        self.r[rows] = ((total % 4) // 2).astype(np.uint8)
        self.x[rows] ^= self.x[source]
        self.z[rows] ^= self.z[source]

    # -- measurement ----------------------------------------------------

    def _random_row(self, q: int) -> int | None:
        """Index of a stabilizer row anticommuting with Z_q, if any."""
        candidates = np.flatnonzero(self.x[self.n :, q]) + self.n
        return int(candidates[0]) if candidates.size else None

    def deterministic_outcome(self, q: int) -> int | None:
        """The certain measurement outcome of qubit ``q``, or None if 50/50.

        Deterministic outcomes are read off a scratch row without modifying
        the tableau (the state is already a Z_q eigenstate): the product of
        the stabilizers indexed by the destabilizers that anticommute with
        Z_q equals ±Z_q, and its sign bit is the outcome.
        """
        if self._random_row(q) is not None:
            return None
        acc_x = np.zeros(self.n, dtype=np.int64)
        acc_z = np.zeros(self.n, dtype=np.int64)
        acc_r = 0
        for i in np.flatnonzero(self.x[: self.n, q]):
            row = int(i) + self.n
            x1 = self.x[row].astype(np.int64)
            z1 = self.z[row].astype(np.int64)
            g = int(self._g_sum(x1, z1, acc_x, acc_z))
            acc_r = ((2 * acc_r + 2 * int(self.r[row]) + g) % 4) // 2
            acc_x ^= x1
            acc_z ^= z1
        return acc_r

    def collapse(self, q: int, outcome: int) -> None:
        """Project qubit ``q`` onto ``outcome`` (must be a random outcome)."""
        p = self._random_row(q)
        if p is None:
            raise ValueError(
                f"qubit {q} is deterministic; collapse needs a 50/50 outcome"
            )
        others = np.flatnonzero(self.x[:, q])
        others = others[others != p]
        if others.size:
            self._rowsum_into(others, p)
        self.x[p - self.n] = self.x[p]
        self.z[p - self.n] = self.z[p]
        self.r[p - self.n] = self.r[p]
        self.x[p] = 0
        self.z[p] = 0
        self.z[p, q] = 1
        self.r[p] = np.uint8(outcome)


class _Tableau:
    """Binary tableau as big-int columns: the production Clifford engine.

    ``_x[q]`` / ``_z[q]`` hold qubit ``q``'s column as an arbitrary-width
    Python integer (bit ``i`` = row ``i``) and ``_r`` holds every row's sign
    bit the same way.  A gate touches one or two columns, so H/S/CX/CZ/SWAP
    are a handful of word-wise big-int ops — O(n/64) machine words with no
    per-row Python loop and no NumPy dispatch overhead, which is what makes
    100–200-qubit walks routine.

    Measurement reads the same columns, bit-sliced over rows:

    * qubit ``q`` is random iff a stabilizer row has an X bit on it,
      ``_x[q] >> n != 0`` (:meth:`is_random`);
    * a deterministic outcome, or the sign of a Pauli in the stabilizer
      group, is the sign of a product of commuting stabilizer rows, summed
      column by column (:meth:`_row_product_sign`);
    * ``collapse`` runs every Aaronson–Gottesman ``rowsum(h, p)`` at once in
      one pass over the columns, with the per-row ``g`` exponents kept in a
      bit-sliced mod-4 counter.

    Snapshots (:meth:`snapshot_token`) are tuples of the column integers —
    immutable, so restoring or re-snapshotting shares them copy-on-write
    instead of deep-copying O(n²) bytes per checkpoint.
    """

    __slots__ = ("n", "_x", "_z", "_r")

    def __init__(self, num_qubits: int):
        n = int(num_qubits)
        self.n = n
        self._x = [1 << q for q in range(n)]  # destabilizer q = X_q
        self._z = [1 << (n + q) for q in range(n)]  # stabilizer q = Z_q
        self._r = 0

    def copy(self) -> "_Tableau":
        clone = _Tableau.__new__(_Tableau)
        clone.n = self.n
        clone._x = list(self._x)
        clone._z = list(self._z)
        clone._r = self._r
        return clone

    # -- gates ----------------------------------------------------------

    def h(self, q: int) -> None:
        x, z = self._x, self._z
        self._r ^= x[q] & z[q]
        x[q], z[q] = z[q], x[q]

    def s(self, q: int) -> None:
        xq = self._x[q]
        self._r ^= xq & self._z[q]
        self._z[q] ^= xq

    def sdg(self, q: int) -> None:
        xq = self._x[q]
        self._r ^= xq & ~self._z[q]  # Sdg = Z . S folds the extra sign in
        self._z[q] ^= xq

    def xgate(self, q: int) -> None:
        self._r ^= self._z[q]

    def ygate(self, q: int) -> None:
        self._r ^= self._x[q] ^ self._z[q]

    def zgate(self, q: int) -> None:
        self._r ^= self._x[q]

    def cx(self, control: int, target: int) -> None:
        x, z = self._x, self._z
        xc, zt = x[control], z[target]
        self._r ^= xc & zt & ~(x[target] ^ z[control])
        x[target] ^= xc
        z[control] ^= zt

    def cz(self, control: int, target: int) -> None:
        # Direct rule (H_t CX H_t composed symbolically): symmetric in the
        # two qubits, phase flips where both X bits are set and exactly one
        # Z bit is.
        x, z = self._x, self._z
        xc, xt = x[control], x[target]
        self._r ^= xc & xt & (z[control] ^ z[target])
        z[control] ^= xt
        z[target] ^= xc

    def swap(self, a: int, b: int) -> None:
        x, z = self._x, self._z
        x[a], x[b] = x[b], x[a]
        z[a], z[b] = z[b], z[a]

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
        """Run a recognised op word; slots index into ``qubits``.

        The op dispatch is deliberately branch-on-arity instead of the
        starred-unpack idiom: the column gates themselves are ~0.2 µs, so a
        per-op tuple allocation would dominate the walk at width.
        """
        table = self._OPS
        for op in ops:
            if len(op) == 2:
                table[op[0]](self, qubits[op[1]])
            else:
                table[op[0]](self, qubits[op[1]], qubits[op[2]])

    # -- measurement ----------------------------------------------------

    def is_random(self, q: int) -> bool:
        """Whether measuring qubit ``q`` is a 50/50 coin.

        True iff some stabilizer row anticommutes with ``Z_q``, i.e. has an
        X bit on ``q``.
        """
        return self._x[q] >> self.n != 0

    def _row_product_sign(self, rows: int) -> int:
        """Sign bit of the product of the commuting rows in the mask ``rows``.

        Per column, the rows' single-qubit Paulis ``i^(xz) X^x Z^z`` multiply
        in row order to ``i^e X^X Z^Z`` with ``X``/``Z`` the parities of the
        column's ``x``/``z`` bits in ``rows``, where ``e`` counts the Y
        factors plus twice the parity of moving each ``Z`` past the ``X`` of
        every later row: ``popcount(x & z) + 2 parity(x & prefix(z))`` with
        ``prefix`` the exclusive prefix-XOR over rows.  Rewriting
        ``X^X Z^Z`` as the row Pauli costs ``-X·Z``.  With the signs' ``2
        popcount(r & rows)`` the exponent of ``i`` is 0 or 2 mod 4.
        """
        exponent = 2 * (self._r & rows).bit_count()
        shifts = []
        shift, span = 1, rows.bit_length()
        while shift < span:
            shifts.append(shift)
            shift <<= 1
        for xc, zc in zip(self._x, self._z):
            x = xc & rows
            if not x:
                continue
            z = zc & rows
            if not z:
                continue
            prefix = z << 1
            for shift in shifts:
                prefix ^= prefix << shift
            exponent += (
                (x & z).bit_count()
                + 2 * (x & prefix).bit_count()
                - (x.bit_count() & z.bit_count() & 1)
            )
        return (exponent % 4) >> 1

    def row_masks(self, rows: int) -> tuple[int, int]:
        """The ``(x, z)`` qubit masks of the product of the rows in ``rows``."""
        x_mask = z_mask = 0
        for q, (xc, zc) in enumerate(zip(self._x, self._z)):
            x_mask |= ((xc & rows).bit_count() & 1) << q
            z_mask |= ((zc & rows).bit_count() & 1) << q
        return x_mask, z_mask

    def deterministic_outcome(self, q: int) -> int | None:
        """The certain measurement outcome of qubit ``q``, or None if 50/50.

        The stabilizers indexed by the destabilizers that anticommute with
        ``Z_q`` multiply to ``±Z_q`` (the state is already a ``Z_q``
        eigenstate), and the sign of that product is the outcome; the
        tableau is not modified.
        """
        if self.is_random(q):
            return None
        # Not random: column q has X bits on destabilizer rows only.
        return self._row_product_sign(self._x[q] << self.n)

    def collapse(self, q: int, outcome: int) -> None:
        """Project qubit ``q`` onto ``outcome`` (must be a random outcome).

        Row ``p`` is the first stabilizer anticommuting with ``Z_q``.  One
        pass over the columns left-multiplies every other row with an X bit
        on ``q`` by row ``p`` — each row's ``g`` exponent accumulated in the
        bit-sliced mod-4 counter ``(hi, lo)`` — then moves row ``p`` to
        destabilizer ``p - n`` and makes row ``p`` the stabilizer ``±Z_q``.
        """
        n = self.n
        stabilizers = self._x[q] >> n
        if not stabilizers:
            raise ValueError(
                f"qubit {q} is deterministic; collapse needs a 50/50 outcome"
            )
        p = (stabilizers & -stabilizers).bit_length() - 1 + n
        source = 1 << p
        dest = source >> n
        targets = self._x[q] & ~source
        keep = ~(source | dest)
        xs, zs = [], []
        lo = hi = 0
        for xc, zc in zip(self._x, self._z):
            x1, z1 = xc & source, zc & source
            if x1 or z1:
                # On this qubit, g(row p, row h) is nonzero for the rows h
                # in ``moved`` and -1 for those in ``minus``.
                if x1 and z1:  # Y: g = z2 - x2
                    moved = xc ^ zc
                    minus = moved & xc
                elif x1:  # X: g = z2 (2 x2 - 1)
                    moved = zc
                    minus = zc & ~xc
                else:  # Z: g = x2 (1 - 2 z2)
                    moved = xc
                    minus = xc & zc
                # Add +1 / -1 to the rows' mod-4 counters: carries and
                # borrows (only the target rows' counters are read).
                hi ^= (lo & moved) ^ minus
                lo ^= moved
                xs.append((xc ^ targets) & keep | dest if x1 else xc & keep)
                zs.append((zc ^ targets) & keep | dest if z1 else zc & keep)
            else:
                xs.append(xc & keep)
                zs.append(zc & keep)
        self._x, self._z = xs, zs
        zs[q] |= source
        r_p = (self._r >> p) & 1
        r = self._r ^ ((hi ^ (targets if r_p else 0)) & targets)
        self._r = r & keep | (dest if r_p else 0) | (source if outcome else 0)

    # -- snapshots ------------------------------------------------------

    def snapshot_token(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """The full state as immutable column integers (copy-on-write)."""
        return (tuple(self._x), tuple(self._z), self._r)

    def restore_token(self, x_cols, z_cols, r: int) -> None:
        self._x = list(x_cols)
        self._z = list(z_cols)
        self._r = int(r)


def tableau_outcome_distribution(
    tableau: _Tableau,
    qubits: Sequence[int],
    max_support: int | None = None,
) -> dict[int, float] | None:
    """Exact sparse outcome distribution of a tableau (little-endian values).

    Walks the branching measurement tree on tableau copies; cost is
    O(support x k x n²), so huge registers are fine as long as the state has
    small measurement support on them (GHZ: support 2 at any width).  With
    ``max_support`` the enumeration bails out and returns ``None`` as soon as
    more than ``max_support`` distinct outcomes have been completed — the
    static analyzer's way of saying "support provably larger than the cap"
    without paying for the full tree.
    """
    qubit_list = list(qubits)
    distribution: dict[int, float] = {}
    stack: list[tuple[_Tableau, int, int, float]] = [(tableau.copy(), 0, 0, 1.0)]
    while stack:
        branch, position, value, probability = stack.pop()
        while position < len(qubit_list):
            q = qubit_list[position]
            outcome = branch.deterministic_outcome(q)
            if outcome is None:
                sibling = branch.copy()
                sibling.collapse(q, 1)
                probability *= 0.5
                stack.append(
                    (sibling, position + 1, value | (1 << position), probability)
                )
                branch.collapse(q, 0)
                outcome = 0
            value |= outcome << position
            position += 1
        distribution[value] = distribution.get(value, 0.0) + probability
        if max_support is not None and len(distribution) > max_support:
            return None
    return distribution


def tableau_pauli_expectation(tableau: _Tableau, x_mask: int, z_mask: int) -> float:
    """Exact ``<P>`` of the tableau state for a phase-free Pauli ``P``.

    ``x_mask`` / ``z_mask`` are the symplectic qubit masks of ``P`` in the
    frame/row convention (bit ``q`` of ``x`` for ``X``/``Y`` on qubit ``q``,
    bit ``q`` of ``z`` for ``Z``/``Y``; ``(1, 1)`` encodes ``Y`` with no
    extra phase, exactly as a tableau row does).  The answer is one of three
    values, read off the stabilizer group without touching the state:

    * ``P`` anticommutes with some stabilizer generator → ``<P> = 0``;
    * otherwise ``P`` commutes with the whole (maximal isotropic) group, so
      its symplectic vector lies in the generators' span and ``P ∈ ±S``.
      Destabilizer ``i`` anticommutes with stabilizer ``i`` only, so the
      expansion of ``P`` over the generators is exactly "stabilizer ``i``
      appears iff destabilizer ``i`` anticommutes with ``P``", and the sign
      of that product of stabilizers (the
      :meth:`_Tableau.deterministic_outcome` machinery generalised from
      ``Z_q`` to arbitrary masks) gives ``<P> = ±1``.

    The anticommutation mask over rows is the XOR of the ``x`` columns on
    ``P``'s Z qubits and the ``z`` columns on its X qubits.  Cost is
    O(n log n) big-int ops on ``2n``-bit integers and leaves the tableau
    state unchanged — this is what makes observable assertions free on
    Clifford breakpoints.
    """
    n = tableau.n
    if x_mask >> n or z_mask >> n:
        raise ValueError("Pauli mask bits set beyond the tableau width")
    if x_mask == 0 and z_mask == 0:
        return 1.0
    anti = 0
    for q, (xc, zc) in enumerate(zip(tableau._x, tableau._z)):
        if (z_mask >> q) & 1:
            anti ^= xc
        if (x_mask >> q) & 1:
            anti ^= zc
    if anti >> n:
        return 0.0
    rows = anti << n
    if tableau.row_masks(rows) != (x_mask, z_mask):  # pragma: no cover - tableau invariant
        raise RuntimeError("Pauli commutes with every stabilizer but is not in the group")
    return -1.0 if tableau._row_product_sign(rows) else 1.0


class StabilizerBackend(SimulationBackend):
    """Clifford-only tableau backend (registry name ``"stabilizer"``).

    With a Pauli ``noise`` model the backend becomes a trajectory engine:
    the tableau itself is walked **once**, noiselessly, while every
    trajectory member carries a :class:`~repro.sim.pauli_frame.PauliFrameSet`
    row accumulating its sampled noise Paulis — O(1) per gate per member,
    so per-gate bit/phase-flip sweeps on 24–48 qubit Clifford workloads cost
    barely more than the noiseless walk.  Readout XORs each member's frame
    flips onto outcomes drawn from the shared tableau distribution.

    ``member_noise`` shares a :class:`~repro.sim.trajectory_backend.MemberNoise`
    instead of building one from ``noise``, ``batch_size``, ``rng_streams``
    and ``seed`` (the hybrid backend's stages share one).
    """

    name = "stabilizer"

    def __init__(
        self,
        num_qubits: int | None = None,
        noise: "NoiseModel | KrausChannel | Sequence[KrausChannel] | None" = None,
        batch_size: int = 1,
        rng_streams: "Sequence[np.random.Generator] | None" = None,
        seed: "int | np.random.SeedSequence | None" = None,
        member_noise: MemberNoise | None = None,
    ):
        super().__init__()
        self._tableau: _Tableau | None = None
        if member_noise is None:
            member_noise = MemberNoise(noise, batch_size, rng_streams, seed)
        self._member_noise = member_noise
        self.noise = member_noise.noise
        self._batch_size = member_noise.batch_size
        self._frames: PauliFrameSet | None = None
        if num_qubits is not None:
            self.initialize(num_qubits)

    @property
    def statevector_gates_applied(self) -> int:
        """The tableau never touches a dense representation."""
        return 0

    @property
    def batch_size(self) -> int:
        return self._batch_size

    @property
    def frames(self) -> PauliFrameSet | None:
        """The per-member Pauli frames (None on a noiseless single walk)."""
        return self._frames

    # -- state lifecycle ------------------------------------------------

    def initialize(
        self, num_qubits: int, initial_state: Statevector | None = None
    ) -> "StabilizerBackend":
        self._tableau = _Tableau(num_qubits)
        # Frames ride along whenever members can diverge (noise or a batch).
        if self._member_noise.pool is not None:
            self._frames = PauliFrameSet(self._batch_size, num_qubits)
        self._member_noise.reset()
        if initial_state is not None:
            if initial_state.num_qubits != num_qubits:
                raise ValueError("initial state has the wrong number of qubits")
            support = np.flatnonzero(np.abs(initial_state.data) > 1e-12)
            if support.size != 1:
                raise ValueError(
                    "stabilizer backend can only be initialised from a "
                    "computational basis state"
                )
            value = int(support[0])
            for qubit in range(num_qubits):
                if (value >> qubit) & 1:
                    self._tableau.xgate(qubit)
        return self

    @property
    def num_qubits(self) -> int:
        return self._require_tableau().n

    def snapshot(self) -> tuple:
        """The state as immutable column integers (shared copy-on-write).

        The token holds references to the tableau's big-int columns, not a
        byte-level deep copy, so a ``PlanCache`` ``SnapshotSet`` of ``k``
        breakpoints over an ``n``-qubit rng-free walk costs O(k·n) object
        pointers plus one copy of each *distinct* column value — not
        O(k·n²) bytes.  Frame word arrays (when noise is live) are small
        and genuinely mutable, so those are copied, and so are the member
        weights when importance sampling is on.
        """
        tableau = self._require_tableau()
        token = tableau.snapshot_token()
        if self._frames is not None:
            token += (self._frames.x.copy(), self._frames.z.copy())
        weights = self._member_noise.member_weights()
        if weights is not None:
            token += (weights,)
        return token

    def restore(self, token: object) -> "StabilizerBackend":
        tableau = self._require_tableau()
        try:
            parts = tuple(token)
        except TypeError:
            raise ValueError("not a StabilizerBackend snapshot token") from None
        if len(parts) not in (3, 5, 6):
            raise ValueError("not a StabilizerBackend snapshot token")
        if (len(parts) >= 5) != (self._frames is not None) or (
            (len(parts) == 6) != (self._member_noise.weights is not None)
        ):
            raise ValueError(
                "snapshot frame payload does not match the backend's noise "
                "configuration"
            )
        try:
            x_cols = tuple(int(v) for v in parts[0])
            z_cols = tuple(int(v) for v in parts[1])
            r = int(parts[2])
        except (TypeError, ValueError):
            raise ValueError("not a StabilizerBackend snapshot token") from None
        n = tableau.n
        if len(x_cols) != n or len(z_cols) != n:
            raise ValueError("snapshot does not match the current register size")
        full = (1 << (2 * n)) - 1
        if not 0 <= r <= full or any(
            not 0 <= v <= full for v in x_cols + z_cols
        ):
            raise ValueError("snapshot does not match the current register size")
        if self._frames is not None:
            frame_x, frame_z = (
                np.asarray(part, dtype=np.uint64) for part in parts[3:5]
            )
            if frame_x.shape != self._frames.x.shape or (
                frame_z.shape != self._frames.z.shape
            ):
                raise ValueError("snapshot does not match the frame batch shape")
            self._frames.x = frame_x.copy()
            self._frames.z = frame_z.copy()
        self._member_noise.restore_weights(parts[5] if len(parts) == 6 else None)
        tableau.restore_token(x_cols, z_cols, r)
        return self

    # -- evolution ------------------------------------------------------

    def apply_matrix(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "StabilizerBackend":
        tableau = self._require_tableau()
        qubit_list = validated_qubits(qubits, tableau.n)
        matrix = validated_matrix(matrix, len(qubit_list))
        ops = decompose_gate(matrix, len(qubit_list))
        self._apply_ops(tableau, ops, qubit_list)
        return self

    def apply_controlled(
        self,
        matrix: np.ndarray,
        controls: Sequence[int],
        targets: Sequence[int],
    ) -> "StabilizerBackend":
        tableau = self._require_tableau()
        control_list = validated_qubits(controls, tableau.n)
        target_list = validated_qubits(targets, tableau.n)
        if set(control_list) & set(target_list):
            raise ValueError("control and target qubits overlap")
        matrix = validated_matrix(matrix, len(target_list))
        ops = decompose_controlled_gate(matrix, len(control_list), len(target_list))
        self._apply_ops(tableau, ops, control_list + target_list)
        return self

    def _apply_ops(
        self, tableau: _Tableau, ops: Sequence[tuple], qubits: list[int]
    ) -> None:
        """Run one gate's op word on the tableau and frames, then its noise.

        The noise events come from the same sampling contract as the
        statevector trajectories, drawn into the frames.
        """
        tableau.apply_ops(ops, qubits)
        if self._frames is not None:
            self._frames.apply_ops(ops, qubits)
        self.gates_applied += 1
        for qubit, paulis in self._member_noise.events(qubits):
            self._frames.inject(qubit, paulis)

    def member_weights(self) -> np.ndarray | None:
        """Per-member likelihood-ratio weights, or ``None`` when unbiased.

        Non-``None`` exactly when the noise model carries an
        ``importance_boost``: each entry is the running product of the
        likelihood ratios of that member's sampled noise events, and
        ensemble statistics must be weighted by them to stay unbiased.
        """
        return self._member_noise.member_weights()

    # -- Pauli observables ----------------------------------------------

    def member_pauli_expectations(self, x_mask: int, z_mask: int) -> np.ndarray:
        """Exact per-member ``<P>`` for the symplectic masks ``(x, z)``.

        Member ``m``'s state is ``F_m |psi>`` with ``F_m`` its Pauli frame,
        so ``<P>_m = <psi| F_m P F_m |psi>`` — the shared tableau value
        flipped by the sign of the frame/Pauli symplectic product.  Without
        frames the single shared value comes back as a length-1 array.
        """
        base = tableau_pauli_expectation(self._require_tableau(), x_mask, z_mask)
        if self._frames is None:
            return np.array([base])
        if base == 0.0 or self._frames.is_identity:
            return np.full(self._batch_size, base)
        frame_x, frame_z = self._frames.masks()
        signs = np.array(
            [
                -1.0
                if ((fx & z_mask).bit_count() + (fz & x_mask).bit_count()) & 1
                else 1.0
                for fx, fz in zip(frame_x, frame_z)
            ]
        )
        return base * signs

    def pauli_expectation(self, x_mask: int, z_mask: int) -> float:
        """Exact ensemble ``<P>`` (weighted frame average when noise is live)."""
        members = self.member_pauli_expectations(x_mask, z_mask)
        return float(self._member_noise.mixture(members))

    # -- readout --------------------------------------------------------

    def outcome_distribution(
        self, qubits: Sequence[int]
    ) -> "dict[int, float]":
        """Exact sparse outcome distribution over ``qubits`` (little-endian).

        Walks the branching measurement tree on tableau copies; cost is
        O(support x k x n²), so huge registers are fine as long as the state
        has small measurement support on them (GHZ: support 2 at any width).
        """
        tableau = self._require_tableau()
        qubit_list = validated_qubits(qubits, tableau.n)
        distribution = tableau_outcome_distribution(tableau, qubit_list)
        assert distribution is not None  # no cap: enumeration always completes
        return distribution

    def _tableau_probabilities(self, qubit_list: list[int]) -> np.ndarray:
        """Dense marginal of the noiseless tableau state (frames excluded)."""
        if len(qubit_list) > _DENSE_LIMIT:
            raise ValueError(
                f"dense distribution over {len(qubit_list)} qubits exceeds the "
                f"{_DENSE_LIMIT}-qubit materialisation limit; use "
                "outcome_distribution() for the sparse view"
            )
        probs = np.zeros(1 << len(qubit_list), dtype=float)
        for value, probability in self.outcome_distribution(qubit_list).items():
            probs[value] = probability
        return probs

    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Marginal outcome distribution; frame-averaged when noise is live.

        With frames the member distributions are the tableau distribution
        XOR-shifted by each member's flip mask, so the ensemble-averaged
        marginal is a cheap convolution of the tableau marginal with the
        (likelihood-ratio weighted) frame-flip histogram.
        """
        qubit_list = self._readout_qubits(qubits)
        base = self._tableau_probabilities(qubit_list)
        if self._frames is None or self._frames.is_identity:
            return base
        flips = self._frames.outcome_flips(qubit_list)
        averaged = np.zeros_like(base)
        indices = np.arange(base.size)
        for flip, share in zip(*self._member_noise.shares(flips)):
            averaged[indices ^ int(flip)] += share * base
        return averaged

    def sample(
        self,
        qubits: Sequence[int] | None = None,
        shots: int = 1,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Draw outcomes; with frames, one per member when ``shots == batch_size``.

        The trajectory readout draws base outcomes from the **shared**
        noiseless tableau marginal (one ``draw_outcomes`` call, as in the
        statevector backend) and XORs each member's frame flips on top —
        member ``m``'s sample is one noisy execution.  Other shot counts draw
        i.i.d. from the frame-averaged mixture.
        """
        rng = _as_rng(rng)
        qubit_list = self._readout_qubits(qubits)
        if self._frames is not None and shots == self._batch_size:
            draws = draw_outcomes(self._tableau_probabilities(qubit_list), rng, shots)
            return draws ^ self._frames.outcome_flips(qubit_list)
        return draw_outcomes(self.probabilities(qubit_list), rng, shots)

    def marginal_cdf(self, qubits: Sequence[int]) -> "np.ndarray | None":
        """The tableau marginal's CDF; ``None`` while frames carry members."""
        if self._frames is not None:
            return None
        return outcome_cdf(self.probabilities(qubits))

    def measure(
        self,
        qubits: Sequence[int],
        rng: np.random.Generator | int | None = None,
    ) -> int:
        """Projective measurement, RNG-stream-compatible with the statevector.

        The outcome is drawn with one ``draw_outcomes`` over the dense marginal
        (exactly the statevector backend's consumption pattern) and the
        tableau is then collapsed onto it qubit by qubit.  With frames the
        collapse is only defined per member, so noisy batches are restricted
        to ``batch_size == 1`` (the executor's ``"rerun"`` mode): the drawn
        outcome is reported frame-adjusted and the tableau collapses onto
        the corresponding base outcome.
        """
        tableau = self._require_tableau()
        qubit_list = validated_qubits(qubits, tableau.n)
        rng = _as_rng(rng)
        flip = 0
        if self._frames is not None:
            if self._batch_size != 1:
                raise RuntimeError(
                    "collapsing measurement of a frame batch is per-member; "
                    "use batch_size=1 (the executor's 'rerun' mode does)"
                )
            flip = int(self._frames.outcome_flips(qubit_list)[0])
        outcome = draw_outcomes(self.probabilities(qubit_list), rng)
        base_outcome = outcome ^ flip
        for position, q in enumerate(qubit_list):
            bit = (base_outcome >> position) & 1
            deterministic = tableau.deterministic_outcome(q)
            if deterministic is None:
                tableau.collapse(q, bit)
            elif deterministic != bit:  # pragma: no cover - zero-probability draw
                raise ValueError(
                    f"outcome {outcome} on qubits {qubit_list} has zero probability"
                )
        return outcome

    def prep_qubit(
        self,
        qubit: int,
        value: int,
        rng: np.random.Generator | int | None = None,
    ) -> "StabilizerBackend":
        """``PrepZ`` on the tableau; per-member frame corrections when noisy.

        The shared tableau is reset exactly once (collapsing a 50/50 qubit
        with one rng draw, like the dense backends' measurement-based
        reset); each member's correcting X then lives **in its frame**, so
        members whose noise record left the qubit flipped are fixed without
        touching the shared tableau.  Any needed correction counts as one
        gate and triggers gate noise, mirroring the single-state backends.
        """
        if self._frames is None:
            return super().prep_qubit(qubit, value, rng=rng)
        tableau = self._require_tableau()
        (qubit,) = validated_qubits([qubit], tableau.n)
        value = int(value)
        deterministic = tableau.deterministic_outcome(qubit)
        if deterministic is None:
            base = draw_outcomes(np.array([0.5, 0.5]), _as_rng(rng))
            tableau.collapse(qubit, base)
        else:
            base = deterministic
        member_bits = base ^ self._frames.x_bits(qubit)
        flips = member_bits != value
        if np.any(flips):
            self._frames.flip_x(qubit, flips)
            self.gates_applied += 1
            # Only corrected members ran an X; only they pick up its noise.
            for noisy_qubit, paulis in self._member_noise.events([qubit], flips):
                self._frames.inject(noisy_qubit, paulis)
        return self

    # -- conversion -----------------------------------------------------

    def to_statevector(self, copy: bool = True) -> Statevector:
        """Dense reconstruction: project a support basis state with every
        stabilizer (``Π (I + S_i)/2``) and normalise.

        The result equals the simulated state up to a global phase (the
        stabilizer formalism never tracks one), which no probability or
        downstream hybrid continuation can observe.
        """
        if self._frames is not None and not self._frames.is_identity:
            raise ValueError(
                "the tableau carries diverged Pauli frames (one state per "
                "trajectory member); use member_statevectors()"
            )
        tableau = self._require_tableau()
        n = tableau.n
        if n > _CONVERSION_LIMIT:
            raise ValueError(
                f"cannot densify a {n}-qubit tableau (limit {_CONVERSION_LIMIT})"
            )
        probe = tableau.copy()
        basis = 0
        for q in range(n):
            outcome = probe.deterministic_outcome(q)
            if outcome is None:
                probe.collapse(q, 0)
                outcome = 0
            basis |= outcome << q
        amplitudes = np.zeros(1 << n, dtype=complex)
        amplitudes[basis] = 1.0
        for row in range(n, 2 * n):
            sign = -1.0 if (tableau._r >> row) & 1 else 1.0
            x_mask, z_mask = tableau.row_masks(1 << row)
            amplitudes = 0.5 * (
                amplitudes + sign * pauli_mask_kernel(amplitudes, x_mask, z_mask)
            )
        norm = np.linalg.norm(amplitudes)
        if norm < 1e-12:  # pragma: no cover - support search guarantees overlap
            raise RuntimeError("stabilizer projection annihilated the probe state")
        return Statevector(n, amplitudes / norm)

    def member_statevectors(self) -> "tuple[np.ndarray, np.ndarray]":
        """Dense member states: one row per distinct Pauli frame, plus the
        member map ``row_of`` (member ``m`` holds row ``row_of[m]``).

        This is the hybrid backend's conversion payload, in the form
        :meth:`TrajectoryNoiseBackend.initialize_from_members` adopts: the
        shared tableau is densified **once**, then each distinct frame is
        applied as a signed amplitude permutation — O(2^n) per distinct
        frame on top of the single reconstruction, never one reconstruction
        per member.
        """
        tableau = self._require_tableau()
        frames = self._frames
        if frames is None:
            frames = PauliFrameSet(self._batch_size, tableau.n)
        base = self.to_statevector_unchecked().data
        distinct: "dict[tuple[int, int], int]" = {}
        row_of = np.array(
            [distinct.setdefault(masks, len(distinct)) for masks in zip(*frames.masks())],
            dtype=np.intp,
        )
        rows = np.empty((len(distinct), base.shape[0]), dtype=complex)
        for (x_mask, z_mask), row in distinct.items():
            if x_mask == 0 and z_mask == 0:
                rows[row] = base
            else:
                rows[row] = pauli_mask_kernel(base, x_mask, z_mask)
        return rows, row_of

    def to_statevector_unchecked(self) -> Statevector:
        """The shared tableau state, ignoring any Pauli frames."""
        frames, self._frames = self._frames, None
        try:
            return self.to_statevector(copy=False)
        finally:
            self._frames = frames

    # -- helpers --------------------------------------------------------

    def _require_tableau(self) -> _Tableau:
        if self._tableau is None:
            raise RuntimeError("backend not initialised; call initialize() first")
        return self._tableau

    def _readout_qubits(self, qubits: Sequence[int] | None) -> list[int]:
        """The validated readout qubits; ``None`` means the whole register."""
        n = self._require_tableau().n
        return validated_qubits(range(n) if qubits is None else qubits, n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        qubits = self._tableau.n if self._tableau is not None else None
        return f"StabilizerBackend(num_qubits={qubits})"


class HybridCliffordBackend(SimulationBackend):
    """Tableau-until-proven-otherwise backend (registry names ``"auto"``/``"hybrid"``).

    The state starts as a stabilizer tableau and every gate is first offered
    to it; the **first** gate the Clifford recogniser rejects triggers a
    one-time tableau→statevector conversion (``conversions`` counts them —
    the plan walk converts at most once) and the walk continues on the dense
    backend.  Programs whose breakpoint prefixes are largely Clifford — state
    preparation, GHZ/teleportation scaffolding, the H-layer of Shor — thus
    pay O(n²) per gate until the first genuinely non-Clifford rotation.

    ``statevector_gates_applied`` counts only the dense-stage gate
    applications, so benchmarks can show the hybrid applying strictly fewer
    statevector operations than a pure statevector walk while remaining
    verdict- and ensemble-identical under a fixed seed.

    With a Pauli ``noise`` model the hybrid becomes the trajectory engine's
    routing target for mixed plans: the Clifford prefix runs as **one**
    noiseless tableau walk with per-member Pauli frames, and the conversion
    at the first non-Clifford gate materialises every member's dense state
    (tableau state + frame) into a :class:`TrajectoryNoiseBackend` batch.
    Both stages share the hybrid's one
    :class:`~repro.sim.trajectory_backend.MemberNoise`, so the dense stage
    keeps drawing from the same stream positions and multiplying onto the
    same importance weights — nothing is handed over at the conversion.
    """

    name = "auto"

    def __init__(
        self,
        num_qubits: int | None = None,
        noise: "NoiseModel | KrausChannel | Sequence[KrausChannel] | None" = None,
        batch_size: int = 1,
        rng_streams: "Sequence[np.random.Generator] | None" = None,
        seed: "int | np.random.SeedSequence | None" = None,
    ):
        super().__init__()
        self._engine: SimulationBackend | None = None
        self._num_qubits: int | None = None
        self._member_noise = MemberNoise(noise, batch_size, rng_streams, seed)
        self.noise = self._member_noise.noise
        #: Number of tableau->statevector conversions performed (0 or 1 per walk).
        self.conversions = 0
        self._dense_gates = 0
        if num_qubits is not None:
            self.initialize(num_qubits)

    @property
    def statevector_gates_applied(self) -> int:
        """Gate applications executed on the dense statevector stage."""
        return self._dense_gates

    @property
    def batch_size(self) -> int:
        return self._member_noise.batch_size

    def _new_tableau_stage(self) -> StabilizerBackend:
        if self._member_noise.pool is None:
            return StabilizerBackend()
        return StabilizerBackend(member_noise=self._member_noise)

    def _new_dense_stage(self) -> SimulationBackend:
        if self._member_noise.pool is None:
            return StatevectorBackend()
        # The dense stage's native readout path is stripped: the hybrid
        # itself has no native readout (the tableau stage cannot apply one),
        # so readout corruption is the caller's job across *both* stages —
        # leaving the noise model's bundled channel live here would corrupt
        # post-conversion breakpoints twice.
        return TrajectoryNoiseBackend(
            member_noise=self._member_noise, readout_error=ReadoutErrorModel()
        )

    # -- state lifecycle ------------------------------------------------

    def initialize(
        self, num_qubits: int, initial_state: Statevector | None = None
    ) -> "HybridCliffordBackend":
        self._num_qubits = int(num_qubits)
        try:
            self._engine = self._new_tableau_stage().initialize(
                num_qubits, initial_state=initial_state
            )
        except ValueError:
            # Non-basis initial state: start dense straight away.
            self._engine = self._new_dense_stage().initialize(
                num_qubits, initial_state=initial_state
            )
        return self

    @property
    def num_qubits(self) -> int:
        return self._require_engine().num_qubits

    @property
    def stage(self) -> str:
        """``"tableau"`` before the first non-Clifford gate, ``"statevector"`` after."""
        engine = self._require_engine()
        return "tableau" if isinstance(engine, StabilizerBackend) else "statevector"

    @property
    def active_engine(self) -> SimulationBackend:
        """The live stage engine — read-only introspection for routing code."""
        return self._require_engine()

    def _densify(self) -> SimulationBackend:
        engine = self._require_engine()
        if not isinstance(engine, StabilizerBackend):
            return engine
        try:
            if self._member_noise.pool is None:
                state = engine.to_statevector(copy=False)
                dense = StatevectorBackend().initialize(
                    engine.num_qubits, initial_state=state
                )
            else:
                # One tableau densification, then each distinct frame on top.
                dense = self._new_dense_stage().initialize_from_members(
                    *engine.member_statevectors()
                )
        except ValueError as exc:
            raise ValueError(
                f"backend='auto' hit a non-Clifford gate on a "
                f"{engine.num_qubits}-qubit register, beyond the "
                f"{_CONVERSION_LIMIT}-qubit tableau->statevector conversion "
                "limit; mixed programs this wide need an explicit dense "
                "backend (backend='statevector') from the start"
            ) from exc
        self._engine = dense
        self.conversions += 1
        return dense

    def snapshot(self) -> tuple[str, object]:
        engine = self._require_engine()
        return (self.stage, engine.snapshot())

    def restore(self, token: object) -> "HybridCliffordBackend":
        self._require_engine()
        try:
            stage, inner = token
        except (TypeError, ValueError):
            raise ValueError("not a HybridCliffordBackend snapshot token") from None
        if stage not in ("tableau", "statevector"):
            raise ValueError(f"unknown snapshot stage {stage!r}")
        if stage == self.stage:
            self._engine.restore(inner)
            return self
        # Cross-stage restore: rebuild the stage the token was taken in
        # (with the same noise configuration and shared member streams).
        if stage == "tableau":
            engine = self._new_tableau_stage().initialize(self._num_qubits)
        else:
            engine = self._new_dense_stage().initialize(self._num_qubits)
        engine.restore(inner)
        self._engine = engine
        return self

    # -- evolution ------------------------------------------------------

    def apply_matrix(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "HybridCliffordBackend":
        engine = self._require_engine()
        if isinstance(engine, StabilizerBackend):
            try:
                engine.apply_matrix(matrix, qubits)
            except NotCliffordGateError:
                self._densify().apply_matrix(matrix, qubits)
                self._dense_gates += 1
        else:
            engine.apply_matrix(matrix, qubits)
            self._dense_gates += 1
        self.gates_applied += 1
        return self

    def apply_controlled(
        self,
        matrix: np.ndarray,
        controls: Sequence[int],
        targets: Sequence[int],
    ) -> "HybridCliffordBackend":
        engine = self._require_engine()
        if isinstance(engine, StabilizerBackend):
            try:
                engine.apply_controlled(matrix, controls, targets)
            except NotCliffordGateError:
                self._densify().apply_controlled(matrix, controls, targets)
                self._dense_gates += 1
        else:
            engine.apply_controlled(matrix, controls, targets)
            self._dense_gates += 1
        self.gates_applied += 1
        return self

    # -- readout --------------------------------------------------------

    def member_weights(self) -> "np.ndarray | None":
        """Per-member likelihood-ratio weights, or ``None`` when unbiased."""
        return self._member_noise.member_weights()

    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        return self._require_engine().probabilities(qubits)

    def sample(
        self,
        qubits: Sequence[int] | None = None,
        shots: int = 1,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        return self._require_engine().sample(qubits, shots=shots, rng=rng)

    def marginal_cdf(self, qubits: Sequence[int]) -> "np.ndarray | None":
        return self._require_engine().marginal_cdf(qubits)

    def measure(
        self,
        qubits: Sequence[int],
        rng: np.random.Generator | int | None = None,
    ) -> int:
        return self._require_engine().measure(qubits, rng=rng)

    def prep_qubit(
        self,
        qubit: int,
        value: int,
        rng: np.random.Generator | int | None = None,
    ) -> "HybridCliffordBackend":
        """Delegate ``PrepZ`` to the live stage, keeping the gate accounting.

        The correcting X (when one is applied) is counted by the stage
        engine; mirroring it into the hybrid's own counters keeps
        ``gates_applied`` / ``statevector_gates_applied`` comparable with a
        pure statevector walk of the same program.
        """
        engine = self._require_engine()
        before = engine.gates_applied
        engine.prep_qubit(qubit, value, rng=rng)
        delta = engine.gates_applied - before
        self.gates_applied += delta
        if not isinstance(engine, StabilizerBackend):
            self._dense_gates += delta
        return self

    # -- conversion -----------------------------------------------------

    def to_statevector(self, copy: bool = True) -> Statevector:
        return self._require_engine().to_statevector(copy=copy)

    def _require_engine(self) -> SimulationBackend:
        if self._engine is None:
            raise RuntimeError("backend not initialised; call initialize() first")
        return self._engine

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._engine is None:
            return "HybridCliffordBackend(uninitialised)"
        return (
            f"HybridCliffordBackend(num_qubits={self._num_qubits}, "
            f"stage={self.stage!r})"
        )


def _noisy_stabilizer_backend(
    noise=None, batch_size=1, rng_streams=None, readout_error=None
) -> "StabilizerBackend":
    # Readout corruption stays with the executor (classical path); the
    # tableau only carries the gate-noise Pauli frames.
    return StabilizerBackend(
        noise=noise, batch_size=batch_size, rng_streams=resolve_streams(rng_streams)
    )


def _noisy_hybrid_backend(
    noise=None, batch_size=1, rng_streams=None, readout_error=None
) -> "HybridCliffordBackend":
    return HybridCliffordBackend(
        noise=noise, batch_size=batch_size, rng_streams=resolve_streams(rng_streams)
    )


register_backend(
    StabilizerBackend.name,
    StabilizerBackend,
    BackendCapabilities(
        gate_noise=frozenset({"pauli"}),
        clifford_native=True,
        dense=False,
        batched=True,
        priority=10,
        description="Aaronson-Gottesman tableau; Clifford-only, Pauli frames",
    ),
    noisy_factory=_noisy_stabilizer_backend,
)
for _hybrid_name in (HybridCliffordBackend.name, "hybrid"):
    register_backend(
        _hybrid_name,
        HybridCliffordBackend,
        BackendCapabilities(
            gate_noise=frozenset({"pauli"}),
            dense=True,
            batched=True,
            description=(
                "tableau until the first non-Clifford gate, then one "
                "conversion to a dense statevector"
            ),
        ),
        noisy_factory=_noisy_hybrid_backend,
        kraus_delegate="density",
        clifford_aware=True,
    )
