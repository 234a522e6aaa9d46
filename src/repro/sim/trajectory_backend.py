"""Quantum-trajectory noise backend: batched Pauli sampling on statevectors.

The density-matrix backend densifies on the first Kraus application, which
puts per-gate noise on the 11–13 qubit Shor workloads out of reach (``4^n``
memory and work).  :class:`TrajectoryNoiseBackend` unravels **Pauli** noise
channels into Monte-Carlo trajectories instead: every channel application
samples one Pauli per trajectory member and applies it as a plain gate, so a
noisy ensemble costs ``B`` statevectors of ``2^n`` amplitudes — never a
density matrix.

Batching
--------
The backend carries the ``B`` trajectory members copy-on-diverge: a
preallocated ``(B, 2^n)`` C-contiguous store whose first ``rows`` rows are
the distinct member states, and a ``row_of`` map from member to row.  One
walk of an execution plan produces the whole noisy ensemble (the
incremental executor sets ``batch_size = ensemble_size`` and draws one
readout sample per member at each breakpoint).  Unitary gates are identical
across members, so each gate is one call of the shared gate kernels of
:mod:`repro.sim.kernels` over the distinct rows only.  A member gets a row
of its own the moment it would differ from the members it shares one with:
a noise event splits off the hit members of shared rows before applying
per-row Paulis, and a prep collapse splits each outcome's members apart.
``initialize`` starts from one row; readouts index through ``row_of``, so
callers see ``(B, ...)`` results.  Snapshot tokens are ``(rows, row_of)``,
plus the member weights when they are live.

RNG-stream contract
-------------------
Each trajectory member owns an independent rng stream (spawned via
``np.random.SeedSequence.spawn``); one noise event consumes exactly one
uniform per member from that member's stream.  Trajectories are therefore
reproducible under any batch split: member ``m`` sees the same Pauli record
whether it runs in a batch of 1 or of 256, as long as it is handed the same
child stream, and which row it sits in never changes its state.  A gate's
events are drawn together, one uniform per event in event order, as one
``(members, events)`` block from a :class:`StreamPool`.  When, in lockstep,
none of a gate's buffered uniforms reaches the smallest identity bound of
the noise model, the pool skips them instead (:meth:`StreamPool.skip_quiet`):
the draw would have consumed exactly those uniforms and sampled only
identities.  Readout sampling and prep collapses draw from the *caller's*
rng (the executor stream), in member order, exactly like every other
backend.

Member noise state
------------------
:class:`MemberNoise` is the one owner of everything a noisy ensemble member
carries besides its quantum state: the noise model's samplers, the
:class:`StreamPool` of per-member streams and, under importance sampling,
the per-member likelihood-ratio weights.  The trajectory and tableau-frame
backends each hold one; the hybrid backend hands the same instance to both
of its stages, so streams and weights cross its conversion unchanged.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .backend import SimulationBackend
from .registry import BackendCapabilities, register_backend, resolve_streams
from . import kernels as _kernels
from .kernels import apply_pauli_batched, validated_qubits
from .measurement import ReadoutErrorModel
from .noise import KrausChannel, NoiseModel, PauliChannelSampler
from .statevector import Statevector, _as_rng

__all__ = ["MemberNoise", "TrajectoryNoiseBackend", "spawn_trajectory_streams"]


def spawn_trajectory_streams(
    seed: "int | np.random.SeedSequence | None", count: int
) -> list[np.random.Generator]:
    """Independent per-trajectory rng streams via ``SeedSequence.spawn``.

    This is the one sanctioned way to build trajectory streams: spawned
    children are statistically independent *and* reproducible from the root
    entropy, unlike handing every member the same shared ``Generator``
    (whose draw order would silently couple members under re-batching).
    """
    if count <= 0:
        raise ValueError("stream count must be positive")
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    return [np.random.default_rng(child) for child in root.spawn(count)]


class StreamPool:
    """Block-buffered per-member uniform draws from per-trajectory streams.

    ``Generator.random(block)`` yields the identical double sequence as
    repeated scalar ``random()`` calls, so buffering preserves the
    one-uniform-per-member-per-event contract exactly while collapsing the
    per-event cost from one Python call per member to a vectorised slice
    (refills touch a member only once per ``block`` of its own events).
    While no masked draw has split the members they share one buffer
    position, and a draw is a single column slice of the buffer.
    """

    _BLOCK = 256

    def __init__(self, streams: Sequence[np.random.Generator]):
        self.streams = list(streams)
        count = len(self.streams)
        self._buffer = np.empty((count, self._BLOCK), dtype=float)
        # All positions start exhausted: members fill lazily on first draw.
        self._positions = np.full(count, self._BLOCK, dtype=np.int64)
        self._lockstep = True
        # Per buffer column, the first column at or after it where some
        # member's uniform reaches ``_quiet_bound``; rebuilt after a refill.
        self._next_loud: "list[int] | None" = None
        self._quiet_bound = 0.0

    def __len__(self) -> int:
        return len(self.streams)

    def draw(self, members: np.ndarray | None = None, count: int = 1) -> np.ndarray:
        """The next ``count`` uniforms of each (selected) member's own stream.

        Returns shape ``(len(members), count)``: row ``i`` holds member
        ``members[i]``'s values in stream order, exactly what ``count``
        scalar ``random()`` calls on its stream would return.
        """
        if members is None:
            members = np.arange(len(self.streams))
            if self._lockstep:
                values, end = self._read(members, int(self._positions[0]), count)
                self._positions[:] = end
                return values
        positions = self._positions[members]
        values = np.empty((len(members), count))
        inside = positions + count <= self._BLOCK
        rows = members[inside]
        values[inside] = self._buffer[
            rows[:, None], positions[inside, None] + np.arange(count)
        ]
        self._positions[rows] += count
        for slot in np.flatnonzero(~inside):
            member = members[slot : slot + 1]
            values[slot], self._positions[member] = self._read(
                member, int(positions[slot]), count
            )
        self._lockstep = bool((self._positions == self._positions[0]).all())
        return values

    def skip_quiet(self, count: int, bound: float) -> bool:
        """Advance every member past its next ``count`` uniforms without
        drawing them, when all of them fall below ``bound``.

        Returns whether it did.  The skip is taken only in lockstep and only
        inside the current block: then the values a :meth:`draw` of
        ``count`` would return are the buffer columns from the shared
        position on, already known, and a caller whose every identity bound
        is at least ``bound`` would sample nothing but identities from them.
        Advancing the position leaves each stream exactly where that draw
        would.
        """
        if not self._lockstep:
            return False
        start = int(self._positions[0])
        if not 0 < count <= self._BLOCK - start:
            return False
        if self._next_loud is None or self._quiet_bound != bound:
            loud = (self._buffer >= bound).any(axis=0)
            columns = np.where(loud, np.arange(self._BLOCK), self._BLOCK)
            self._next_loud = np.minimum.accumulate(columns[::-1])[::-1].tolist()
            self._quiet_bound = bound
        if self._next_loud[start] < start + count:
            return False
        self._positions[:] = start + count
        return True

    def _read(
        self, rows: np.ndarray, start: int, count: int
    ) -> "tuple[np.ndarray, int]":
        """``count`` values for each of ``rows``, which share buffer position
        ``start``, refilling the rows whenever their block runs out.

        Returns the values and the rows' new position.
        """
        values = np.empty((len(rows), count))
        filled = 0
        while filled < count:
            if start >= self._BLOCK:
                for member in rows:
                    self._buffer[member] = self.streams[member].random(self._BLOCK)
                self._next_loud = None
                start = 0
            take = min(count - filled, self._BLOCK - start)
            values[:, filled : filled + take] = self._buffer[rows, start : start + take]
            filled += take
            start += take
        return values, start


def as_member_streams(
    streams: Sequence[np.random.Generator], count: int
) -> StreamPool:
    """Validate exactly ``count`` per-member ``numpy.random.Generator``
    streams and wrap them in a pool."""
    streams = list(streams)
    if len(streams) != count:
        raise ValueError(f"need {count} rng streams, got {len(streams)}")
    for stream in streams:
        if not isinstance(stream, np.random.Generator):
            raise TypeError("rng streams must be numpy Generators")
    return StreamPool(streams)


def iter_noise_events(
    samplers: Sequence[PauliChannelSampler],
    touched: Sequence[int],
    pool: StreamPool,
    batch_size: int,
    members: np.ndarray | None = None,
    weights: np.ndarray | None = None,
):
    """Yield ``(qubit, paulis)`` for one gate's noise events.

    This is the single implementation of the trajectory sampling contract,
    shared by the statevector batch and the tableau Pauli frames: one event
    per (touched qubit, single-qubit channel), consuming exactly one uniform
    per member from that member's own stream.  Two-qubit (correlated)
    channels fire **once per gate** — only when the gate touches at least
    two distinct qubits — on the first two touched qubits, consuming one
    uniform per member and yielding one per-qubit event per tensor factor.

    The gate's ``k`` events are drawn as one ``(members, k)`` block, column
    ``e`` holding event ``e``'s uniforms, so each member reads its stream in
    event order exactly as ``k`` one-event draws would.  An event in which
    every member's uniform falls below the identity bound yields nothing:
    it would deliver the identity to every member.

    ``members`` optionally restricts the event to a boolean mask (per-member
    prep corrections): only masked members draw and receive a Pauli, so a
    member's stream consumption depends solely on its own history — the
    batch-split reproducibility invariant.

    ``weights``, when given, is the per-member likelihood-ratio accumulator
    for importance-biased samplers: each biased event, skipped ones
    included, multiplies the drawing members' entries **in place** by the
    sampled component's ratio.
    """
    if not samplers:
        return
    active = None
    target = slice(None)
    if members is not None:
        active = target = np.flatnonzero(members)
        if not active.size:
            return
    seen = list(dict.fromkeys(touched))
    events = [(s, (qubit,)) for qubit in seen for s in samplers if s.num_qubits == 1]
    if len(seen) >= 2:
        events += [(s, tuple(seen[:2])) for s in samplers if s.num_qubits == 2]
    if not events:
        return
    uniforms = pool.draw(active, len(events))
    bounds = np.array([sampler.identity_bound for sampler, _ in events])
    fired = (uniforms >= bounds).any(axis=0)
    for column, (sampler, qubits) in enumerate(events):
        biased = weights is not None and sampler.ratios is not None
        if not fired[column]:
            if biased:
                weights[target] *= sampler.ratios[0]
            continue
        positions = sampler.sample_positions(uniforms[:, column])
        if biased:
            weights[target] *= sampler.ratios[positions]
        for slot, qubit in enumerate(qubits):
            codes = sampler.codes[positions, slot]
            if active is None:
                yield qubit, codes
            else:
                paulis = np.zeros(batch_size, dtype=np.int64)
                paulis[active] = codes
                yield qubit, paulis


class MemberNoise:
    """The noise state every member of a trajectory ensemble carries.

    Holds the noise model's samplers (:class:`PauliChannelSampler`), the
    :class:`StreamPool` of per-member streams and, when a sampler is
    importance-biased, the per-member likelihood-ratio ``weights`` (the
    running product of the ratios of every event the member has drawn).
    ``pool`` is ``None`` exactly when there is a single noiseless member,
    which never draws.  Backends that share one instance share stream
    positions and weights: the hybrid backend's tableau and dense stages do,
    so a member's draws and weight are those of a pure trajectory walk
    wherever the conversion lands.

    Ensemble averages of per-member quantities go through :meth:`mixture`
    and :meth:`shares`, which weight members by their likelihood ratios
    whenever weights are live — the unweighted average would estimate the
    *boosted* noise distribution instead of the true one.
    """

    __slots__ = (
        "noise", "batch_size", "samplers", "pool", "weights", "quiet_bound",
        "_single", "_pair",
    )

    def __init__(
        self,
        noise: "NoiseModel | KrausChannel | Sequence[KrausChannel] | None" = None,
        batch_size: int = 1,
        rng_streams: Sequence[np.random.Generator] | None = None,
        seed: "int | np.random.SeedSequence | None" = None,
    ):
        self.noise = NoiseModel.coerce(noise)
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.batch_size = int(batch_size)
        channels = self.noise.gate_channels if self.noise is not None else ()
        boost = self.noise.importance_boost if self.noise is not None else None
        try:
            self.samplers = tuple(
                PauliChannelSampler(
                    channel.pauli_decomposition(), importance_boost=boost
                )
                for channel in channels
            )
        except ValueError as exc:
            raise ValueError(
                "trajectories and Pauli frames need Pauli-mixture gate "
                f"channels; {exc}.  Non-Pauli channels (e.g. amplitude "
                "damping) need the density-matrix backend."
            ) from None
        self.weights: np.ndarray | None = None
        if any(sampler.is_biased for sampler in self.samplers):
            self.weights = np.ones(self.batch_size)
        # A gate's events: one per (touched qubit, 1-qubit channel), plus
        # the 2-qubit channels once when it touches two qubits.
        self._single = sum(sampler.num_qubits == 1 for sampler in self.samplers)
        self._pair = len(self.samplers) - self._single
        # Uniforms below every sampler's identity bound sample no Pauli.  A
        # live weight must still take each event's ratio, and a sampler
        # without an identity component makes every uniform loud.
        self.quiet_bound: float | None = None
        if self.samplers and self.weights is None:
            bound = min(sampler.identity_bound for sampler in self.samplers)
            self.quiet_bound = bound if bound > 0.0 else None
        self.pool: StreamPool | None = None
        if self.samplers or self.batch_size > 1:
            if rng_streams is not None:
                self.pool = as_member_streams(rng_streams, self.batch_size)
            else:
                self.pool = StreamPool(
                    spawn_trajectory_streams(seed, self.batch_size)
                )

    def reset(self) -> None:
        """Start a new walk: every weight back to 1 (streams run on)."""
        if self.weights is not None:
            self.weights.fill(1.0)

    def events(self, touched: Sequence[int], members: np.ndarray | None = None):
        """One gate's noise events; see :func:`iter_noise_events`.

        An unmasked gate whose uniforms are all quiet (below
        :attr:`quiet_bound`) is served by :meth:`StreamPool.skip_quiet`
        without a draw: it has no events, and the streams move on as the
        draw would have moved them.
        """
        if members is None and self.quiet_bound is not None:
            distinct = len(set(touched))
            count = distinct * self._single + (self._pair if distinct >= 2 else 0)
            if self.pool.skip_quiet(count, self.quiet_bound):
                return ()
        return iter_noise_events(
            self.samplers, touched, self.pool, self.batch_size, members,
            weights=self.weights,
        )

    def member_weights(self) -> np.ndarray | None:
        """A copy of the per-member weights, or ``None`` when unbiased."""
        return None if self.weights is None else self.weights.copy()

    def restore_weights(self, saved: "np.ndarray | None") -> None:
        """Roll the weights back to an earlier :meth:`member_weights` copy."""
        if (saved is None) != (self.weights is None):
            raise ValueError(
                "snapshot member weights do not match the noise model's "
                "importance sampling"
            )
        if saved is not None:
            saved = np.asarray(saved, dtype=float)
            if saved.shape != self.weights.shape:
                raise ValueError("snapshot does not match the member batch shape")
            self.weights[:] = saved

    def mixture(self, rows: np.ndarray) -> np.ndarray:
        """Ensemble average of per-member ``rows`` (members on axis 0)."""
        if self.weights is None:
            return rows.mean(axis=0)
        weights = self.weights.reshape((-1,) + (1,) * (rows.ndim - 1))
        return (weights * rows).sum(axis=0) / self.weights.sum()

    def shares(self, labels: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """The distinct per-member ``labels`` and each one's ensemble share."""
        unique, inverse, counts = np.unique(
            labels, return_inverse=True, return_counts=True
        )
        if self.weights is None:
            return unique, counts / self.batch_size
        shares = np.bincount(inverse.reshape(-1), weights=self.weights)
        return unique, shares / self.weights.sum()


class TrajectoryNoiseBackend(SimulationBackend):
    """Batched Pauli-trajectory backend (registry name ``"trajectory"``).

    Parameters
    ----------
    num_qubits:
        Optional register size to initialise immediately.
    noise:
        A :class:`~repro.sim.noise.NoiseModel` (or channel/iterable wrapped
        into one) whose gate channels must all be Pauli mixtures — verified
        at construction via :meth:`KrausChannel.pauli_decomposition`.
    batch_size:
        Number of trajectory members carried in the stacked state.
    rng_streams:
        Per-member noise streams (one :class:`numpy.random.Generator` per
        member).  The executor passes children spawned from its seed; when
        omitted, fresh streams are spawned from ``seed``.
    readout_error:
        Native readout channel (applied to each member's outcome
        distribution before sampling); overrides the noise model's.
    member_noise:
        A :class:`MemberNoise` to share instead of building one from
        ``noise``, ``batch_size``, ``rng_streams`` and ``seed`` (the hybrid
        backend's stages share one).
    """

    name = "trajectory"
    supports_readout_noise = True

    def __init__(
        self,
        num_qubits: int | None = None,
        noise: "NoiseModel | KrausChannel | Sequence[KrausChannel] | None" = None,
        batch_size: int = 1,
        rng_streams: Sequence[np.random.Generator] | None = None,
        seed: "int | np.random.SeedSequence | None" = None,
        readout_error: ReadoutErrorModel | None = None,
        member_noise: MemberNoise | None = None,
    ):
        super().__init__()
        if member_noise is None:
            member_noise = MemberNoise(noise, batch_size, rng_streams, seed)
        self._member_noise = member_noise
        self.noise = member_noise.noise
        if readout_error is not None:
            self.readout_error = readout_error
        elif self.noise is not None:
            self.readout_error = self.noise.readout
        else:
            self.readout_error = ReadoutErrorModel()
        self._batch_size = member_noise.batch_size
        # Copy-on-diverge member states: rows ``[:_rows]`` of the
        # preallocated ``(B, 2**n)`` store are the distinct states, and
        # member ``m`` holds row ``_row_of[m]``.
        self._store: np.ndarray | None = None
        self._rows = 0
        self._row_of = np.zeros(self._batch_size, dtype=np.intp)
        self._num_qubits: int | None = None
        if num_qubits is not None:
            self.initialize(num_qubits)

    # -- state lifecycle ------------------------------------------------

    def initialize(
        self, num_qubits: int, initial_state: Statevector | None = None
    ) -> "TrajectoryNoiseBackend":
        dim = 1 << int(num_qubits)
        store = np.empty((self._batch_size, dim), dtype=complex)
        if initial_state is not None:
            if initial_state.num_qubits != num_qubits:
                raise ValueError("initial state has the wrong number of qubits")
            store[0] = initial_state.data
        else:
            store[0] = 0.0
            store[0, 0] = 1.0
        self._store, self._rows = store, 1
        self._row_of[:] = 0
        self._num_qubits = int(num_qubits)
        self._member_noise.reset()
        return self

    def initialize_from_members(
        self, rows: np.ndarray, row_of: np.ndarray | None = None
    ) -> "TrajectoryNoiseBackend":
        """Adopt explicit member states (the hybrid conversion path).

        ``rows`` is a ``(rows, 2**n)`` stack of distinct states and
        ``row_of[m]`` the row member ``m`` holds; with ``row_of=None`` the
        stack must be ``(batch_size, 2**n)``, one row per member, and is
        adopted as is (equal rows stay separate).
        """
        rows = np.asarray(rows, dtype=complex)
        if row_of is None:
            if rows.ndim != 2 or rows.shape[0] != self._batch_size:
                raise ValueError(
                    f"expected a ({self._batch_size}, 2**n) member stack, "
                    f"got shape {rows.shape}"
                )
            row_of = np.arange(self._batch_size)
        if rows.ndim != 2:
            raise ValueError(f"expected a (rows, 2**n) stack, got shape {rows.shape}")
        num_qubits = rows.shape[1].bit_length() - 1
        if (1 << num_qubits) != rows.shape[1]:
            raise ValueError("member dimension is not a power of two")
        row_of = self._checked_row_map(row_of, rows.shape[0])
        store = np.empty((self._batch_size, rows.shape[1]), dtype=complex)
        store[: rows.shape[0]] = rows
        self._store, self._rows = store, rows.shape[0]
        self._row_of[:] = row_of
        self._num_qubits = num_qubits
        return self

    @property
    def num_qubits(self) -> int:
        self._require_rows()
        return int(self._num_qubits)

    @property
    def batch_size(self) -> int:
        return self._batch_size

    def set_rng_streams(self, streams: Sequence[np.random.Generator]) -> None:
        """Install per-member noise streams (one Generator per member)."""
        self._member_noise.pool = as_member_streams(streams, self._batch_size)

    def member_weights(self) -> np.ndarray | None:
        """Per-member likelihood-ratio weights, or ``None`` when unbiased.

        The weights are the running product of the importance-sampling
        likelihood ratios of every noise event a member has drawn; ensemble
        averages of per-member statistics must be weighted by them to stay
        unbiased estimates of the true (unbiased-noise) ensemble.
        """
        return self._member_noise.member_weights()

    def set_readout_error(self, model: ReadoutErrorModel | None) -> None:
        self.readout_error = model or ReadoutErrorModel()

    def snapshot(self) -> tuple:
        """``(rows, row_of)``, plus the member weights when they are live."""
        token = (self._require_rows().copy(), self._row_of.copy())
        weights = self._member_noise.member_weights()
        return token if weights is None else token + (weights,)

    def restore(self, token: object) -> "TrajectoryNoiseBackend":
        self._require_rows()
        weighted = self._member_noise.weights is not None
        try:
            rows, row_of, *weights = token
        except (TypeError, ValueError):
            raise ValueError("not a trajectory snapshot token") from None
        if len(weights) != weighted:
            raise ValueError(
                "snapshot member weights do not match the noise model's "
                "importance sampling"
            )
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self._store.shape[1]:
            raise ValueError("snapshot does not match the current batch shape")
        row_of = self._checked_row_map(row_of, rows.shape[0])
        self._member_noise.restore_weights(weights[0] if weighted else None)
        self._store[: rows.shape[0]] = rows
        self._rows = rows.shape[0]
        self._row_of[:] = row_of
        return self

    # -- evolution ------------------------------------------------------

    def apply_matrix(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "TrajectoryNoiseBackend":
        rows = self._require_rows()
        qubit_list = validated_qubits(qubits, self._num_qubits)
        matrix = _kernels.validated_matrix(matrix, len(qubit_list))
        _kernels.apply_matrix(rows, self._num_qubits, matrix, qubit_list)
        self.gates_applied += 1
        self._apply_gate_noise(qubit_list)
        return self

    def apply_controlled(
        self,
        matrix: np.ndarray,
        controls: Sequence[int],
        targets: Sequence[int],
    ) -> "TrajectoryNoiseBackend":
        rows = self._require_rows()
        control_list = validated_qubits(controls, self._num_qubits)
        target_list = validated_qubits(targets, self._num_qubits)
        if set(control_list) & set(target_list):
            raise ValueError("control and target qubits overlap")
        matrix = _kernels.validated_matrix(matrix, len(target_list))
        _kernels.apply_controlled(
            rows, self._num_qubits, matrix, control_list, target_list
        )
        self.gates_applied += 1
        self._apply_gate_noise(control_list + target_list)
        return self

    def _apply_gate_noise(
        self, touched: Sequence[int], members: np.ndarray | None = None
    ) -> None:
        """Sample and apply one Pauli per member per channel per touched qubit."""
        for qubit, paulis in self._member_noise.events(touched, members):
            if np.any(paulis):
                self._apply_member_paulis(qubit, paulis)

    def _apply_member_paulis(self, qubit: int, paulis: np.ndarray) -> None:
        """Apply Pauli ``paulis[m]`` to qubit ``qubit`` of each member ``m``."""
        if self._rows < self._batch_size:
            self._split(paulis)
        row_paulis = np.zeros(self._rows, dtype=np.int64)
        row_paulis[self._row_of] = paulis
        apply_pauli_batched(self._require_rows(), qubit, row_paulis)

    def _split(self, codes: np.ndarray) -> None:
        """Copy-on-diverge: give members their own rows until every row's
        members share one entry of the per-member ``codes``.

        In each row that holds differing codes, the members with the
        smallest code (the unhit ones, code 0, when there are any) keep the
        row and each other code's members move to a fresh copy of it.
        """
        for row in np.unique(self._row_of[codes != 0]):
            members = np.flatnonzero(self._row_of == row)
            shared = codes[members]
            for code in np.unique(shared)[1:]:
                self._store[self._rows] = self._store[row]
                self._row_of[members[shared == code]] = self._rows
                self._rows += 1

    # -- readout --------------------------------------------------------

    def member_probabilities(
        self, qubits: Sequence[int] | None = None, readout: bool = False
    ) -> np.ndarray:
        """Per-member marginal distributions, shape ``(B, 2**k)``.

        With ``readout=True`` each member's ideal marginal is pushed through
        the readout confusion matrix, giving the exact noisy distribution of
        that trajectory.  Each distinct row is reduced once.
        """
        if qubits is not None:
            qubits = validated_qubits(qubits, self._num_qubits)
        return self._member_marginals(qubits, readout)

    def _member_marginals(
        self, qubit_list: "list[int] | None", readout: bool = False
    ) -> np.ndarray:
        """:meth:`member_probabilities` over an already checked qubit list."""
        weights = np.abs(self._require_rows()) ** 2
        weights /= weights.sum(axis=1, keepdims=True)
        if qubit_list is None:
            rows = weights
        else:
            rows = np.stack(
                [
                    _kernels.marginal_probabilities(row, self._num_qubits, qubit_list)
                    for row in weights
                ]
            )
        if readout and not self.readout_error.is_ideal:
            num_bits = rows.shape[1].bit_length() - 1
            rows = np.stack(
                [
                    self.readout_error.apply_to_distribution(row, num_bits)
                    for row in rows
                ]
            )
        return rows[self._row_of]

    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Trajectory-averaged ideal marginal (the density-matrix estimate)."""
        return self._member_noise.mixture(self.member_probabilities(qubits))

    def readout_probabilities(
        self, qubits: Sequence[int] | None = None
    ) -> np.ndarray:
        """Trajectory-averaged noisy-readout marginal."""
        return self._member_noise.mixture(
            self.member_probabilities(qubits, readout=True)
        )

    def sample(
        self,
        qubits: Sequence[int] | None = None,
        shots: int = 1,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Draw measurement outcomes from the trajectory ensemble.

        With ``shots == batch_size`` (the executor's breakpoint readout) one
        outcome is drawn from **each member's own distribution** — the
        trajectory-ensemble semantics, in which member ``m``'s sample is one
        noisy execution.  Any other shot count draws i.i.d. from the
        (likelihood-ratio weighted) mixture distribution instead.
        """
        rng = _as_rng(rng)
        member_probs = self.member_probabilities(qubits, readout=True)
        if shots == self._batch_size:
            cumulative = np.cumsum(member_probs, axis=1)
            cumulative[:, -1] = 1.0
            uniforms = rng.random(self._batch_size)
            outcomes = (cumulative < uniforms[:, None]).sum(axis=1)
            return np.minimum(outcomes, member_probs.shape[1] - 1)
        return _kernels.draw_outcomes(
            self._member_noise.mixture(member_probs), rng, shots
        )

    def measure(
        self,
        qubits: Sequence[int],
        rng: np.random.Generator | int | None = None,
    ) -> int:
        """Ideal projective measurement; single-member batches only.

        A collapsing joint measurement of a whole trajectory batch is
        ill-defined (each member would collapse onto its own outcome yet one
        integer must be returned), so ``measure`` is restricted to
        ``batch_size == 1`` — which is exactly how the executor's faithful
        ``"rerun"`` mode instantiates the backend.
        """
        if self._batch_size != 1:
            raise RuntimeError(
                "collapsing measurement of a trajectory batch is per-member; "
                "use batch_size=1 (the executor's 'rerun' mode does)"
            )
        self._require_rows()
        qubit_list = validated_qubits(qubits, self._num_qubits)
        probs = self._member_marginals(qubit_list)[0]
        outcome = _kernels.draw_outcomes(probs, _as_rng(rng))
        row = self._row_of[0]
        self._store[row] = _kernels.project(
            self._store[row], self._num_qubits, qubit_list, outcome
        )
        return outcome

    def prep_qubit(
        self,
        qubit: int,
        value: int,
        rng: np.random.Generator | int | None = None,
    ) -> "TrajectoryNoiseBackend":
        """Per-member measurement-based reset of one qubit.

        Members whose qubit is already in a basis state are corrected
        exactly; members in superposition collapse on their own outcome
        (consuming draws from the caller's rng in member order), each
        outcome's members on their own row.  The correcting X — when any
        member needs one — counts as one gate and triggers gate noise on the
        prepped qubit, mirroring the single-state backends, where the prep
        correction is an ordinary gate application.
        """
        rows = self._require_rows()
        (qubit,) = validated_qubits([qubit], self._num_qubits)
        value = int(value)
        view = (np.abs(rows) ** 2).reshape(self._rows, -1, 2, 1 << qubit)
        totals = view.sum(axis=(1, 2, 3))
        probability_one = view[:, :, 1, :].sum(axis=(1, 2)) / totals
        current = (probability_one > 0.5).astype(np.int64)[self._row_of]
        uncertain = (probability_one > 1e-12) & (probability_one < 1.0 - 1e-12)
        collapsing = np.flatnonzero(uncertain[self._row_of])
        if collapsing.size:
            rng = _as_rng(rng)
            for member in collapsing:
                p1 = float(probability_one[self._row_of[member]])
                current[member] = _kernels.draw_outcomes(np.array([1.0 - p1, p1]), rng)
            self._split(current)
            for row in np.unique(self._row_of[collapsing]):
                outcome = current[np.flatnonzero(self._row_of == row)[0]]
                self._store[row] = _kernels.project(
                    self._store[row], self._num_qubits, [qubit], int(outcome)
                )
        flips = current != value
        if np.any(flips):
            self._apply_member_paulis(qubit, flips.astype(np.int64))
            self.gates_applied += 1
            # Only the corrected members ran an X, so only they pick up the
            # correction's gate noise (and consume a stream draw).
            self._apply_gate_noise([qubit], members=flips)
        return self

    # -- conversion -----------------------------------------------------

    def member_statevector(self, member: int) -> Statevector:
        """Dense state of one trajectory member (always a copy — the member
        row stays owned by the store)."""
        self._require_rows()
        if not 0 <= member < self._batch_size:
            raise ValueError(f"member index {member} out of range")
        return Statevector(self._num_qubits, self._store[self._row_of[member]])

    def to_statevector(self, copy: bool = True) -> Statevector:
        if self._batch_size != 1:
            raise ValueError(
                "a trajectory batch is an ensemble, not one state; use "
                "member_statevector(m) for individual members"
            )
        return self.member_statevector(0)

    # -- helpers --------------------------------------------------------

    def _require_rows(self) -> np.ndarray:
        """The live ``(rows, 2**n)`` block of distinct member states."""
        if self._store is None:
            raise RuntimeError("backend not initialised; call initialize() first")
        return self._store[: self._rows]

    def _checked_row_map(self, row_of: object, count: int) -> np.ndarray:
        """``row_of`` as a member -> row index array over ``count`` rows."""
        row_of = np.asarray(row_of)
        if not 1 <= count <= self._batch_size:
            raise ValueError(
                f"{count} member rows for a batch of {self._batch_size} members"
            )
        if row_of.shape != (self._batch_size,) or row_of.dtype.kind not in "iu":
            raise ValueError("the member row map needs one row index per member")
        if row_of.min() < 0 or row_of.max() >= count:
            raise ValueError("the member row map points outside the stored rows")
        return row_of.astype(np.intp)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrajectoryNoiseBackend(num_qubits={self._num_qubits}, "
            f"batch_size={self._batch_size}, "
            f"channels={len(self._member_noise.samplers)})"
        )


def _noisy_trajectory_backend(
    noise=None, batch_size=1, rng_streams=None, readout_error=None
) -> "TrajectoryNoiseBackend":
    return TrajectoryNoiseBackend(
        noise=noise,
        batch_size=batch_size,
        rng_streams=resolve_streams(rng_streams),
        readout_error=readout_error,
    )


register_backend(
    TrajectoryNoiseBackend.name,
    TrajectoryNoiseBackend,
    BackendCapabilities(
        gate_noise=frozenset({"pauli"}),
        native_readout=True,
        dense=True,
        batched=True,
        description="batched Monte-Carlo Pauli-trajectory statevectors",
    ),
    noisy_factory=_noisy_trajectory_backend,
)
