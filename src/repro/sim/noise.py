"""Kraus noise channels and the gate/readout noise model.

The paper's experiments assume the ideal QX simulator; the density-matrix
backend extends the reproduction with the standard single-qubit error
channels so readout/gate-error sweeps become first-class.  A channel is a
completely positive trace-preserving map given by its Kraus operators::

    rho  ->  sum_k  K_k rho K_k^dagger,      sum_k K_k^dagger K_k = I

The constructors below build the textbook channels (Nielsen & Chuang ch. 8);
:class:`NoiseModel` bundles a per-gate channel list with the classical
:class:`~repro.sim.measurement.ReadoutErrorModel` so one object describes a
noisy machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import gates as _gates
from .kernels import _index_parity
from .measurement import ReadoutErrorModel

__all__ = [
    "KrausChannel",
    "NoiseModel",
    "PauliMixture",
    "PauliChannelSampler",
    "amplitude_damping",
    "depolarizing",
    "two_qubit_depolarizing",
    "bit_flip",
    "phase_flip",
    "bit_phase_flip",
]

#: Single-qubit Pauli labels indexed by the trajectory sampling convention
#: (0 = I, 1 = X, 2 = Y, 3 = Z); the (x, z) bit pair of label ``i`` is
#: ``(i in {1, 2}, i in {2, 3})``.
PAULI_LABELS = ("I", "X", "Y", "Z")


def _pauli_component(op: np.ndarray) -> tuple[float, int, int] | None:
    """Recognise ``op = c * P`` for a Pauli string ``P``.

    Returns ``(|c|^2, x_mask, z_mask)`` when the operator is proportional to
    ``i^y * X^x_mask * Z^z_mask`` (any global phase), ``(0.0, 0, 0)`` for the
    zero operator, and ``None`` otherwise.  A Pauli string is a signed
    permutation matrix: exactly one entry per column, all of equal magnitude,
    at row ``column ^ x_mask``, with column phases ``(-1)^parity(z & column)``
    relative to column 0.
    """
    dim = op.shape[0]
    magnitude = np.abs(op)
    scale = float(magnitude.max())
    if scale <= 1e-12:
        return (0.0, 0, 0)
    rows, cols = np.nonzero(magnitude > scale * 1e-9)
    if rows.size != dim:
        return None
    order = np.argsort(cols)
    rows, cols = rows[order], cols[order]
    if not np.array_equal(cols, np.arange(dim)):
        return None
    x_mask = int(rows[0])
    if np.any((rows ^ cols) != x_mask):
        return None
    entries = op[rows, cols]
    if not np.allclose(np.abs(entries), scale, atol=scale * 1e-9):
        return None
    ratios = entries / entries[0]
    signs = np.real(np.round(ratios))
    if not np.allclose(ratios, signs, atol=1e-9) or np.any(np.abs(signs) != 1):
        return None
    num_qubits = dim.bit_length() - 1
    z_mask = 0
    for qubit in range(num_qubits):
        if signs[1 << qubit] < 0:
            z_mask |= 1 << qubit
    if np.any(signs != 1.0 - 2.0 * _index_parity(cols & z_mask)):
        return None
    return (scale * scale, x_mask, z_mask)


@dataclass(frozen=True)
class PauliMixture:
    """A Pauli-mixture view of a channel: ``rho -> sum_k p_k P_k rho P_k``.

    Components are keyed by their symplectic ``(x_mask, z_mask)`` bit pair
    (bit ``j`` acts on qubit ``j``); probabilities sum to 1.  This is the
    sampling table of the trajectory backends: one noise event draws one
    component per trajectory member and applies it as a plain Pauli gate —
    O(2^n) on a statevector member, O(n) on a Pauli frame — instead of the
    density backend's 4^n Kraus contraction.
    """

    num_qubits: int
    probabilities: tuple[float, ...]
    x_masks: tuple[int, ...]
    z_masks: tuple[int, ...]

    def labels(self) -> tuple[str, ...]:
        """Pauli-string labels, most significant qubit first."""
        table = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
        return tuple(
            "".join(
                table[((x >> q) & 1, (z >> q) & 1)]
                for q in reversed(range(self.num_qubits))
            )
            for x, z in zip(self.x_masks, self.z_masks)
        )

    def single_qubit_indices(self) -> np.ndarray:
        """Component Pauli indices (0=I, 1=X, 2=Y, 3=Z); 1-qubit mixtures only."""
        if self.num_qubits != 1:
            raise ValueError("single-qubit index table needs a 1-qubit mixture")
        table = {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}
        return np.array(
            [table[(x, z)] for x, z in zip(self.x_masks, self.z_masks)],
            dtype=np.int64,
        )

    def component_codes(self) -> np.ndarray:
        """Per-component single-qubit Pauli codes, shape ``(C, num_qubits)``.

        Entry ``[k, q]`` is the 0=I / 1=X / 2=Y / 3=Z code of component
        ``k``'s tensor factor on qubit ``q`` — a correlated multi-qubit
        Pauli string delivered as its per-qubit factors, which is how the
        trajectory paths apply it (the factors' relative phase is a global
        phase per member and unobservable in Z-basis readout).
        """
        table = {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}
        codes = np.array(
            [
                [
                    table[((x >> q) & 1, (z >> q) & 1)]
                    for q in range(self.num_qubits)
                ]
                for x, z in zip(self.x_masks, self.z_masks)
            ],
            dtype=np.int64,
        )
        return codes.reshape(len(self.probabilities), self.num_qubits)


class PauliChannelSampler:
    """Pre-computed inverse-CDF sampling table of a Pauli mixture.

    One trajectory noise event consumes **one uniform per member** (drawn by
    the caller from that member's own rng stream) and maps it through the
    cumulative component probabilities — the rng-stream contract that keeps
    seeded runs reproducible under any batching of the ensemble.

    With ``importance_boost=q`` the sampler draws components from a *biased*
    distribution that inflates the total error mass to ``q`` (no-op when the
    true error mass already meets it): each error component's probability is
    scaled by ``q / p_err`` and the identity keeps the remaining ``1 - q``.
    ``ratios[k] = p_k / q_k`` then holds the per-component likelihood ratio;
    multiplying a member's running weight by the ratio of every sampled
    component keeps ensemble averages unbiased while rare error branches are
    visited often enough for finite-variance rate estimates.

    ``identity_bound`` is the cumulative bound of the identity component
    (0.0 when the mixture has none): a uniform below it samples the
    identity, so an event whose uniforms all fall below it changes no
    member's state.
    """

    __slots__ = (
        "codes", "cumulative", "identity_bound", "indices", "num_qubits", "ratios"
    )

    def __init__(
        self,
        mixture: PauliMixture,
        importance_boost: float | None = None,
    ):
        self.num_qubits = mixture.num_qubits
        self.codes = mixture.component_codes()
        self.indices = self.codes[:, 0] if mixture.num_qubits == 1 else None
        probabilities = np.asarray(mixture.probabilities, dtype=float)
        sampling = probabilities
        self.ratios: np.ndarray | None = None
        if importance_boost is not None:
            if not 0.0 < importance_boost < 1.0:
                raise ValueError("importance_boost must lie in (0, 1)")
            identity = np.array(
                [x == 0 and z == 0 for x, z in zip(mixture.x_masks, mixture.z_masks)]
            )
            error_mass = float(probabilities[~identity].sum())
            if identity.any() and 0.0 < error_mass < importance_boost:
                sampling = probabilities * (importance_boost / error_mass)
                sampling[identity] = (
                    probabilities[identity]
                    * ((1.0 - importance_boost) / (1.0 - error_mass))
                )
                self.ratios = probabilities / sampling
        cumulative = np.cumsum(sampling)
        cumulative[-1] = 1.0  # guard accumulated rounding at the top end
        self.cumulative = cumulative
        # Components are sorted by (x, z) mask, so the identity comes first.
        self.identity_bound = 0.0 if self.codes[0].any() else float(cumulative[0])

    @property
    def is_biased(self) -> bool:
        """True when sampling is importance-biased (weights must be tracked)."""
        return self.ratios is not None

    def sample_positions(self, uniforms: np.ndarray) -> np.ndarray:
        """Component index per member for the given uniforms."""
        positions = np.searchsorted(self.cumulative, uniforms, side="right")
        return np.minimum(positions, len(self.cumulative) - 1)

    def sample(self, uniforms: np.ndarray) -> np.ndarray:
        """Pauli index (0=I, 1=X, 2=Y, 3=Z) per member for the given uniforms."""
        if self.indices is None:
            raise ValueError("sample() needs a 1-qubit mixture; use sample_positions")
        return self.indices[self.sample_positions(uniforms)]


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A CPTP map described by its Kraus operators.

    Operators must share one square, power-of-two dimension and satisfy the
    completeness relation ``sum K^dagger K = I`` (trace preservation) within
    ``1e-9`` — channels that leak probability are rejected at construction.
    """

    name: str
    operators: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.operators:
            raise ValueError("a Kraus channel needs at least one operator")
        # Copy and freeze: caller-side mutation must not invalidate the
        # completeness check below after construction.
        normalised = tuple(
            np.array(op, dtype=complex) for op in self.operators
        )
        for op in normalised:
            op.setflags(write=False)
        dim = normalised[0].shape[0] if normalised[0].ndim == 2 else 0
        for op in normalised:
            if op.ndim != 2 or op.shape != (dim, dim):
                raise ValueError("Kraus operators must be square and same-sized")
        num_qubits = int(round(math.log2(dim))) if dim else 0
        if dim == 0 or (1 << num_qubits) != dim:
            raise ValueError("Kraus operator dimension is not a power of two")
        completeness = sum(op.conj().T @ op for op in normalised)
        if not np.allclose(completeness, np.eye(dim), atol=1e-9):
            raise ValueError(
                f"channel {self.name!r} is not trace preserving: "
                "sum K^dagger K != I"
            )
        object.__setattr__(self, "operators", normalised)

    @property
    def num_qubits(self) -> int:
        return int(round(math.log2(self.operators[0].shape[0])))

    def apply_to_matrix(self, rho: np.ndarray) -> np.ndarray:
        """Dense reference application ``sum_k K rho K^dagger`` (tests/ground truth)."""
        return sum(op @ rho @ op.conj().T for op in self.operators)

    def pauli_decomposition(self) -> PauliMixture:
        """The channel as a Pauli mixture, or :class:`ValueError` if it is none.

        A channel is a Pauli mixture exactly when every Kraus operator is
        proportional to a Pauli string (``K_k = c_k P_k``); the mixture weight
        of ``P_k`` is ``|c_k|^2`` and the weights sum to 1 by the completeness
        relation.  Zero-weight operators (e.g. the ``sqrt(1-p) I`` term of
        ``bit_flip(1.0)``) are dropped; duplicate Paulis are merged.  The
        result is cached — channels are frozen.
        """
        cached = getattr(self, "_pauli_mixture", None)
        if cached is not None:
            return cached
        components: dict[tuple[int, int], float] = {}
        for op in self.operators:
            component = _pauli_component(np.asarray(op))
            if component is None:
                raise ValueError(
                    f"channel {self.name!r} is not a Pauli mixture: a Kraus "
                    "operator is not proportional to a Pauli string"
                )
            weight, x_mask, z_mask = component
            if weight > 0.0:
                key = (x_mask, z_mask)
                components[key] = components.get(key, 0.0) + weight
        items = sorted(components.items())
        total = sum(weight for _, weight in items)
        mixture = PauliMixture(
            num_qubits=self.num_qubits,
            probabilities=tuple(weight / total for _, weight in items),
            x_masks=tuple(x for (x, _), _ in items),
            z_masks=tuple(z for (_, z), _ in items),
        )
        object.__setattr__(self, "_pauli_mixture", mixture)
        return mixture

    @property
    def is_pauli(self) -> bool:
        """True when the channel is a probabilistic mixture of Pauli strings."""
        try:
            self.pauli_decomposition()
        except ValueError:
            return False
        return True

    def __repr__(self) -> str:
        return (
            f"KrausChannel({self.name!r}, {len(self.operators)} operator(s) "
            f"on {self.num_qubits} qubit(s))"
        )


def _pauli_mixture_channel(
    name: str, terms: Sequence[tuple[float, np.ndarray]]
) -> KrausChannel:
    """Build a Pauli-mixture channel, dropping zero-probability terms.

    Keeping the zero-weight operator out of the list is what makes the
    boundary channels exact: ``bit_flip(1.0)`` is the single Kraus operator
    ``X`` (not ``(0*I, X)``) and ``bit_flip(0.0)`` the identity channel, so
    ``pauli_decomposition`` weights never carry spurious zero components.
    """
    operators = tuple(
        math.sqrt(probability) * matrix for probability, matrix in terms
        if probability > 0.0
    )
    return KrausChannel(name=name, operators=operators)


def bit_flip(p: float) -> KrausChannel:
    """X error with probability ``p``: ``rho -> (1-p) rho + p X rho X``."""
    _check_probability("p", p)
    return _pauli_mixture_channel(
        f"bit_flip({p})", ((1.0 - p, _gates.I), (p, _gates.X))
    )


def phase_flip(p: float) -> KrausChannel:
    """Z error with probability ``p``: ``rho -> (1-p) rho + p Z rho Z``."""
    _check_probability("p", p)
    return _pauli_mixture_channel(
        f"phase_flip({p})", ((1.0 - p, _gates.I), (p, _gates.Z))
    )


def bit_phase_flip(p: float) -> KrausChannel:
    """Y error with probability ``p``: ``rho -> (1-p) rho + p Y rho Y``."""
    _check_probability("p", p)
    return _pauli_mixture_channel(
        f"bit_phase_flip({p})", ((1.0 - p, _gates.I), (p, _gates.Y))
    )


def depolarizing(p: float) -> KrausChannel:
    """Symmetric Pauli error: each of X, Y, Z occurs with probability ``p/3``."""
    _check_probability("p", p)
    return _pauli_mixture_channel(
        f"depolarizing({p})",
        (
            (1.0 - p, _gates.I),
            (p / 3.0, _gates.X),
            (p / 3.0, _gates.Y),
            (p / 3.0, _gates.Z),
        ),
    )


def two_qubit_depolarizing(p: float) -> KrausChannel:
    """Correlated two-qubit Pauli error: each of the 15 non-identity
    two-qubit Pauli strings occurs with probability ``p/15``.

    Unlike two independent single-qubit channels this correlates the errors
    on the pair — ``X (x) X`` at ``p/15`` rather than ``(p/3)^2`` — which is
    the standard model for entangling-gate noise.  The trajectory paths apply
    it once per two-qubit gate, to the first two qubits the gate touches.
    """
    _check_probability("p", p)
    paulis = (_gates.I, _gates.X, _gates.Y, _gates.Z)
    terms = [(1.0 - p, np.kron(_gates.I, _gates.I))]
    for high in range(4):
        for low in range(4):
            if high or low:
                terms.append((p / 15.0, np.kron(paulis[high], paulis[low])))
    return _pauli_mixture_channel(f"two_qubit_depolarizing({p})", terms)


def amplitude_damping(gamma: float) -> KrausChannel:
    """Energy relaxation ``|1> -> |0>`` with probability ``gamma``."""
    _check_probability("gamma", gamma)
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    operators = (k0,) if gamma == 0.0 else (k0, k1)
    return KrausChannel(name=f"amplitude_damping({gamma})", operators=operators)


def _check_probability(name: str, value: float) -> None:
    """Accept exactly the closed interval [0, 1] — the boundaries included.

    ``p = 0`` (the identity channel) and ``p = 1`` (a deterministic Pauli)
    are legitimate sweep endpoints; anything outside, including NaN, is
    rejected.
    """
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class NoiseModel:
    """Machine-level noise: per-gate Kraus channels plus readout error.

    ``gate_channels`` holds single-qubit channels — applied, after every
    gate, to each qubit the gate touched (controls included) — and may also
    hold two-qubit channels such as :func:`two_qubit_depolarizing`, which the
    trajectory paths fire once per multi-qubit gate on the first two qubits
    it touches (correlated pair errors).  ``readout`` is the classical
    measurement channel, applied analytically in the density backend's
    readout path.

    ``importance_boost``, when set, turns on importance-sampled trajectory
    noise: Pauli-mixture components are drawn from a biased distribution
    whose total error mass is inflated to the boost, and each trajectory
    member carries a likelihood-ratio weight so ensemble statistics stay
    unbiased.  Pick a boost so the *expected number of error events per
    member* is O(1) — roughly ``boost ~ a few / (gates x qubits)`` — which
    is what gives rare-event sweeps (``p ~ 1e-4``) finite-variance detection
    rates at fixed ensemble size.
    """

    gate_channels: tuple[KrausChannel, ...] = ()
    readout: ReadoutErrorModel = field(default_factory=ReadoutErrorModel)
    importance_boost: float | None = None

    def __post_init__(self) -> None:
        channels = tuple(self.gate_channels)
        for channel in channels:
            if not isinstance(channel, KrausChannel):
                raise TypeError(f"expected a KrausChannel, got {type(channel)!r}")
            if channel.num_qubits not in (1, 2):
                raise ValueError(
                    f"gate channel {channel.name!r} acts on "
                    f"{channel.num_qubits} qubits; per-gate noise must act "
                    f"on one or two qubits"
                )
        object.__setattr__(self, "gate_channels", channels)
        if self.importance_boost is not None:
            boost = float(self.importance_boost)
            if not 0.0 < boost < 1.0:
                raise ValueError(
                    f"importance_boost must lie in (0, 1), got {self.importance_boost}"
                )
            object.__setattr__(self, "importance_boost", boost)

    @classmethod
    def from_channels(
        cls,
        channels: "KrausChannel | Iterable[KrausChannel]",
        readout: ReadoutErrorModel | None = None,
        importance_boost: float | None = None,
    ) -> "NoiseModel":
        if isinstance(channels, KrausChannel):
            channels = (channels,)
        return cls(
            gate_channels=tuple(channels),
            readout=readout or ReadoutErrorModel(),
            importance_boost=importance_boost,
        )

    @classmethod
    def coerce(
        cls, noise: "NoiseModel | KrausChannel | Iterable[KrausChannel] | None"
    ) -> "NoiseModel | None":
        """``None`` or a model unchanged; a channel or channels wrapped into one."""
        if noise is None or isinstance(noise, cls):
            return noise
        return cls.from_channels(noise)

    @property
    def is_ideal(self) -> bool:
        return not self.gate_channels and self.readout.is_ideal

    @property
    def is_pauli(self) -> bool:
        """True when every gate channel is a Pauli mixture.

        This is the routing predicate of the trajectory engine: a Pauli
        model unravels into statevector trajectories (or tableau Pauli
        frames); anything else needs the density-matrix backend.
        """
        return all(channel.is_pauli for channel in self.gate_channels)
