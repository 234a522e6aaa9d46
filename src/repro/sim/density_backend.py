"""Density-matrix simulation backend with Kraus-channel noise.

:class:`DensityMatrixBackend` honours the full
:class:`~repro.sim.backend.SimulationBackend` contract, so the incremental
executor, the assertion checker and the workload sweeps can select it through
their existing ``backend=`` parameters (registry name ``"density"``).  What
it adds over the statevector backend is *noise*: per-gate Kraus channels
(:mod:`repro.sim.noise`) and an analytic readout-error path, so a single walk
of an execution plan yields the **exact** noisy distribution at every
breakpoint instead of per-member corrupted re-sampling.

Representation
--------------
A density matrix is quadratically bigger than a statevector, so the backend
keeps the state *pure* — a plain :class:`Statevector` — for as long as the
evolution is unitary, and materialises ``rho = |psi><psi|`` lazily on the
first Kraus-channel application (``densify``).  In the noiseless limit the
backend therefore costs the same as the statevector backend and produces
bit-identical readout distributions; readout error never densifies either,
because it is applied to the *classical* outcome distribution via the per-bit
confusion matrix, not to the quantum state.

Once dense, evolution reuses the vectorised kernels of
:mod:`repro.sim.kernels` by treating the flattened ``2^n x 2^n`` matrix as a
``2n``-qubit state: bits ``0..n-1`` of the flat index are the column (bra)
side and bits ``n..2n-1`` the row (ket) side, so ``U rho U^dagger`` is one
kernel application of ``U`` on the row bits plus one of ``conj(U)`` on the
column bits — the dense ``4^n x 4^n`` superoperator is never built.

``snapshot`` / ``restore`` capture whichever representation is live and can
cross the pure/dense boundary in either direction, so the incremental
executor's checkpointing works unchanged.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .backend import SimulationBackend
from .registry import BackendCapabilities, register_backend
from .density import DensityMatrix
from .density import reduced_density_matrix as _pure_reduced_density_matrix
from . import kernels as _kernels
from .measurement import ReadoutErrorModel
from .noise import KrausChannel, NoiseModel
from .statevector import Statevector, _as_rng

__all__ = ["DensityMatrixBackend"]


class DensityMatrixBackend(SimulationBackend):
    """Noise-capable density-matrix backend (registry name ``"density"``).

    Parameters
    ----------
    num_qubits:
        Optional register size to initialise immediately.
    noise:
        A :class:`~repro.sim.noise.NoiseModel`, a single
        :class:`~repro.sim.noise.KrausChannel`, or an iterable of channels
        (wrapped into a model).  Gate channels are applied to every qubit a
        gate touches; the model's readout error seeds :attr:`readout_error`.
    readout_error:
        Explicit readout channel; overrides the noise model's when given.
        The executor also injects its own via :meth:`set_readout_error`.
    """

    name = "density"
    supports_readout_noise = True

    def __init__(
        self,
        num_qubits: int | None = None,
        noise: "NoiseModel | KrausChannel | Sequence[KrausChannel] | None" = None,
        readout_error: ReadoutErrorModel | None = None,
    ):
        super().__init__()
        self.noise = NoiseModel.coerce(noise)
        if readout_error is not None:
            self.readout_error = readout_error
        elif self.noise is not None:
            self.readout_error = self.noise.readout
        else:
            self.readout_error = ReadoutErrorModel()
        self._num_qubits: int | None = None
        self._pure: Statevector | None = None
        self._rho: np.ndarray | None = None
        if num_qubits is not None:
            self.initialize(num_qubits)

    # -- state lifecycle ------------------------------------------------

    def initialize(
        self, num_qubits: int, initial_state: Statevector | None = None
    ) -> "DensityMatrixBackend":
        if initial_state is not None:
            if initial_state.num_qubits != num_qubits:
                raise ValueError("initial state has the wrong number of qubits")
            self._pure = initial_state.copy()
        else:
            self._pure = Statevector(num_qubits)
        self._rho = None
        self._num_qubits = int(num_qubits)
        return self

    @property
    def num_qubits(self) -> int:
        self._require_state()
        return int(self._num_qubits)

    @property
    def is_pure_representation(self) -> bool:
        """True while the state is still tracked as a statevector."""
        self._require_state()
        return self._pure is not None

    def densify(self) -> "DensityMatrixBackend":
        """Switch to the dense ``rho = |psi><psi|`` representation."""
        self._require_state()
        if self._rho is None:
            vec = self._pure.data
            self._rho = np.outer(vec, vec.conj())
            self._pure = None
        return self

    def set_readout_error(self, model: ReadoutErrorModel | None) -> None:
        self.readout_error = model or ReadoutErrorModel()

    def snapshot(self) -> tuple[str, np.ndarray]:
        self._require_state()
        if self._pure is not None:
            return ("pure", self._pure.data.copy())
        return ("rho", self._rho.copy())

    def restore(self, token: object) -> "DensityMatrixBackend":
        self._require_state()
        try:
            kind, data = token
        except (TypeError, ValueError):
            raise ValueError("not a DensityMatrixBackend snapshot token") from None
        dim = 1 << self._num_qubits
        data = np.asarray(data)
        if kind == "pure":
            if data.shape != (dim,):
                raise ValueError("snapshot does not match the current register size")
            self._pure = Statevector(self._num_qubits, data)
            self._rho = None
        elif kind == "rho":
            if data.shape != (dim, dim):
                raise ValueError("snapshot does not match the current register size")
            self._rho = np.array(data, dtype=complex)
            self._pure = None
        else:
            raise ValueError(f"unknown snapshot kind {kind!r}")
        return self

    # -- evolution ------------------------------------------------------

    def apply_matrix(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "DensityMatrixBackend":
        self._require_state()
        n = self._num_qubits
        qubit_list = _kernels.validated_qubits(qubits, n)
        matrix = _kernels.validated_matrix(matrix, len(qubit_list))
        if self._pure is not None:
            _kernels.apply_matrix(self._pure.data, n, matrix, qubit_list)
        else:
            flat = self._rho.reshape(-1)
            _kernels.apply_matrix(flat, 2 * n, matrix, [q + n for q in qubit_list])
            _kernels.apply_matrix(flat, 2 * n, matrix.conj(), qubit_list)
        self.gates_applied += 1
        self._apply_gate_noise(qubit_list)
        return self

    def apply_controlled(
        self,
        matrix: np.ndarray,
        controls: Sequence[int],
        targets: Sequence[int],
    ) -> "DensityMatrixBackend":
        self._require_state()
        n = self._num_qubits
        control_list = _kernels.validated_qubits(controls, n)
        target_list = _kernels.validated_qubits(targets, n)
        if set(control_list) & set(target_list):
            raise ValueError("control and target qubits overlap")
        matrix = _kernels.validated_matrix(matrix, len(target_list))
        if self._pure is not None:
            _kernels.apply_controlled(
                self._pure.data, n, matrix, control_list, target_list
            )
        else:
            flat = self._rho.reshape(-1)
            # conj(controlled(U)) == controlled(conj(U)): the control
            # projector part is real, so the bra side just conjugates U.
            _kernels.apply_controlled(
                flat,
                2 * n,
                matrix,
                [q + n for q in control_list],
                [q + n for q in target_list],
            )
            _kernels.apply_controlled(
                flat, 2 * n, matrix.conj(), control_list, target_list
            )
        self.gates_applied += 1
        self._apply_gate_noise(control_list + target_list)
        return self

    def apply_channel(
        self, channel: KrausChannel, qubits: Sequence[int]
    ) -> "DensityMatrixBackend":
        """Apply a Kraus channel to ``qubits`` (densifies the representation)."""
        self._require_state()
        qubit_list = [int(q) for q in qubits]
        if channel.num_qubits != len(qubit_list):
            raise ValueError(
                f"channel {channel.name!r} acts on {channel.num_qubits} "
                f"qubit(s), got {len(qubit_list)} operand(s)"
            )
        _kernels.validated_qubits(qubit_list, self._num_qubits)
        self.densify()
        n = self._num_qubits
        flat = self._rho.reshape(-1)
        ket_side = [q + n for q in qubit_list]
        accumulated = np.zeros_like(flat)
        for operator in channel.operators:
            term = flat.copy()
            _kernels.apply_matrix(term, 2 * n, operator, ket_side)
            _kernels.apply_matrix(term, 2 * n, operator.conj(), qubit_list)
            accumulated += term
        flat[:] = accumulated
        return self

    def _apply_gate_noise(self, touched: Sequence[int]) -> None:
        channels = self.noise.gate_channels if self.noise is not None else ()
        if not channels:
            return
        seen: list[int] = []
        for qubit in touched:
            if qubit not in seen:
                seen.append(qubit)
        single = [c for c in channels if c.num_qubits == 1]
        double = [c for c in channels if c.num_qubits == 2]
        for qubit in seen:
            for channel in single:
                self.apply_channel(channel, [qubit])
        # Two-qubit (correlated) channels fire once per multi-qubit gate, on
        # the first two qubits it touches — the same contract as the
        # trajectory paths' iter_noise_events.
        if double and len(seen) >= 2:
            for channel in double:
                self.apply_channel(channel, seen[:2])

    # -- readout --------------------------------------------------------

    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Ideal (pre-readout-error) marginal outcome distribution."""
        self._require_state()
        if self._pure is not None:
            return self._pure.probabilities(qubits)
        diagonal = np.clip(np.real(np.einsum("ii->i", self._rho)), 0.0, None)
        if qubits is None:
            return diagonal
        qubit_list = _kernels.validated_qubits(qubits, self._num_qubits)
        return _kernels.marginal_probabilities(diagonal, self._num_qubits, qubit_list)

    def readout_probabilities(
        self, qubits: Sequence[int] | None = None
    ) -> np.ndarray:
        """Exact noisy outcome distribution: ideal marginals through the
        readout confusion matrix."""
        probs = self.probabilities(qubits)
        if self.readout_error.is_ideal:
            return probs
        num_bits = probs.size.bit_length() - 1
        return self.readout_error.apply_to_distribution(probs, num_bits)

    def sample(
        self,
        qubits: Sequence[int] | None = None,
        shots: int = 1,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        return _kernels.draw_outcomes(
            self.readout_probabilities(qubits), _as_rng(rng), shots
        )

    def marginal_cdf(self, qubits: Sequence[int]) -> np.ndarray:
        return _kernels.outcome_cdf(self.readout_probabilities(qubits))

    def measure(
        self,
        qubits: Sequence[int],
        rng: np.random.Generator | int | None = None,
    ) -> int:
        """Ideal projective measurement (collapses onto the true outcome).

        The readout channel deliberately does **not** apply here: ``measure``
        backs mid-circuit dynamics (measurement-based ``PrepZ`` resets),
        which must behave identically across backends.  Readout error is a
        classical reporting effect and lives in the sampling path
        (:meth:`sample` / :meth:`readout_probabilities`); callers that want
        noisy reported collapses corrupt the returned value explicitly with
        :meth:`ReadoutErrorModel.corrupt`.
        """
        self._require_state()
        qubit_list = [int(q) for q in qubits]
        rng = _as_rng(rng)
        if self._pure is not None:
            return self._pure.measure(qubit_list, rng=rng)
        outcome = _kernels.draw_outcomes(self.probabilities(qubit_list), rng)
        self._project(qubit_list, outcome)
        return outcome

    def _project(self, qubits: Sequence[int], value: int) -> None:
        keep = _kernels.outcome_mask(self._num_qubits, qubits, value)
        self._rho[~keep, :] = 0.0
        self._rho[:, ~keep] = 0.0
        trace = float(np.real(np.einsum("ii->", self._rho)))
        if trace < 1e-15:
            raise ValueError(
                f"outcome {value} on qubits {list(qubits)} has zero probability"
            )
        self._rho /= trace

    # -- conversion -----------------------------------------------------

    def to_statevector(self, copy: bool = True) -> Statevector:
        self._require_state()
        if self._pure is not None:
            return self._pure.copy() if copy else self._pure
        eigenvalues, eigenvectors = np.linalg.eigh(self._rho)
        trace = float(np.real(np.einsum("ii->", self._rho)))
        if eigenvalues[-1] < trace - 1e-9:
            raise ValueError(
                "state is mixed (purity < 1): it cannot be represented as a "
                "statevector"
            )
        return Statevector(self._num_qubits, eigenvectors[:, -1])

    def to_density_matrix(self) -> DensityMatrix:
        """Dense :class:`~repro.sim.density.DensityMatrix` view of the state."""
        self._require_state()
        if self._pure is not None:
            return DensityMatrix.from_statevector(self._pure)
        return DensityMatrix(self._rho)

    def reduced_density_matrix(self, keep: Sequence[int]) -> DensityMatrix:
        """Partial trace down to the qubits in ``keep`` (little-endian in the
        order given) — directly comparable with
        :func:`repro.sim.density.reduced_density_matrix` ground truth."""
        self._require_state()
        keep = _kernels.validated_qubits(keep, self._num_qubits)
        if self._pure is not None:
            return _pure_reduced_density_matrix(self._pure, keep)
        n = self._num_qubits
        traced = [q for q in range(n) if q not in keep]
        keep_axes = [n - 1 - q for q in reversed(keep)]
        traced_axes = [n - 1 - q for q in reversed(traced)]
        order = (
            keep_axes
            + traced_axes
            + [axis + n for axis in keep_axes]
            + [axis + n for axis in traced_axes]
        )
        tensor = np.transpose(self._rho.reshape([2] * (2 * n)), order)
        keep_dim = 1 << len(keep)
        traced_dim = 1 << len(traced)
        tensor = tensor.reshape(keep_dim, traced_dim, keep_dim, traced_dim)
        return DensityMatrix(np.einsum("atbt->ab", tensor))

    def purity(self) -> float:
        """``Tr(rho^2)``: 1 for pure states, down to ``1/2^n`` when mixed."""
        self._require_state()
        if self._pure is not None:
            norm = float(np.real(np.vdot(self._pure.data, self._pure.data)))
            return norm * norm
        return float(np.real(np.einsum("ij,ji->", self._rho, self._rho)))

    # -- helpers --------------------------------------------------------

    def _require_state(self) -> None:
        if self._pure is None and self._rho is None:
            raise RuntimeError("backend not initialised; call initialize() first")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        representation = (
            "uninitialised"
            if self._pure is None and self._rho is None
            else ("pure" if self._pure is not None else "dense")
        )
        return (
            f"DensityMatrixBackend(num_qubits={self._num_qubits}, "
            f"representation={representation})"
        )


def _noisy_density_backend(
    noise=None, batch_size=1, rng_streams=None, readout_error=None
) -> "DensityMatrixBackend":
    # Exact single-state evolution: the batch width and trajectory streams
    # of the Monte-Carlo engines do not apply here.
    return DensityMatrixBackend(noise=noise, readout_error=readout_error)


register_backend(
    DensityMatrixBackend.name,
    DensityMatrixBackend,
    BackendCapabilities(
        gate_noise=frozenset({"pauli", "kraus"}),
        native_readout=True,
        dense=True,
        description="exact density matrix; any CPTP channel, 4^n memory",
    ),
    noisy_factory=_noisy_density_backend,
)
