"""Pluggable simulation backends.

The execution stack (``lang`` programs → compiler ``ExecutionPlan`` →
simulation → ``core`` checker) talks to the simulator exclusively through the
:class:`SimulationBackend` interface defined here.  The interface is the
extension point for alternative simulation strategies:
:class:`StatevectorBackend` below is the production implementation backing
every noiseless benchmark,
:class:`repro.sim.density_backend.DensityMatrixBackend` (registry name
``"density"``) adds Kraus-channel and readout noise, and a stabilizer
backend for Clifford-only programs would subclass and register the same
way.

Two capabilities distinguish the interface from a bare statevector:

* ``snapshot`` / ``restore`` — cheap checkpointing, which is what lets the
  incremental executor simulate a k-assertion program once instead of k
  times (each breakpoint draws its measurement ensemble from a snapshot and
  the walk continues from the restored state);
* ``gates_applied`` — an instrumented gate counter, so tests and benchmarks
  can verify the O(total_gates) work bound of the incremental engine rather
  than trusting wall-clock noise.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from . import kernels as _kernels
from .gates import gate_matrix
from .statevector import Statevector

__all__ = ["SimulationBackend", "StatevectorBackend"]


class SimulationBackend(abc.ABC):
    """Abstract interface every simulation backend implements.

    A backend owns one quantum state.  ``initialize`` (re)sets it; the
    ``apply_*`` methods evolve it; ``probabilities``/``sample``/``measure``
    read it out; ``snapshot``/``restore`` checkpoint it.  Gate applications
    are counted in :attr:`gates_applied` for cost accounting.
    """

    #: Registry name of the backend (subclasses override).
    name: str = "abstract"

    #: True when the backend applies readout error natively in its own
    #: readout path (``sample``/``measure``).  The executor then installs its
    #: readout model via :meth:`set_readout_error` instead of stochastically
    #: corrupting each drawn sample after the fact.
    supports_readout_noise: bool = False

    def __init__(self) -> None:
        self.gates_applied = 0

    @property
    def statevector_gates_applied(self) -> int:
        """Gate applications that ran on a *dense* state representation.

        Dense backends (statevector, density matrix) do all their gate work
        on exponentially sized arrays, so the default is simply
        :attr:`gates_applied`.  The stabilizer tableau overrides this to 0
        and the hybrid backend to its dense-stage count, which is what lets
        benchmarks show the hybrid engine applying strictly fewer
        statevector operations than a pure statevector walk.
        """
        return self.gates_applied

    @property
    def batch_size(self) -> int:
        """Number of simultaneously carried states (1 for single-state backends).

        Trajectory backends stack ``B`` ensemble members through one plan
        walk; everything else simulates a single state.
        """
        return 1

    def set_readout_error(self, model) -> None:
        """Install a readout-error model into the backend's readout path.

        Only meaningful when :attr:`supports_readout_noise` is true.
        """
        raise NotImplementedError(
            f"backend {self.name!r} has no native readout-noise path"
        )

    def prep_qubit(
        self,
        qubit: int,
        value: int,
        rng: "np.random.Generator | int | None" = None,
    ) -> "SimulationBackend":
        """``PrepZ``: exact on basis-state qubits, measurement-based reset otherwise.

        This is the lowering point of ``PrepInstruction`` (the lang
        interpreter calls it for every prep).  The default applies to any
        single-state backend; batched trajectory backends override it to
        reset each ensemble member on its own measurement outcome.
        """
        qubit = int(qubit)
        probability_one = float(self.probabilities([qubit])[1])
        if probability_one < 1e-12 or probability_one > 1.0 - 1e-12:
            current = 1 if probability_one > 0.5 else 0
        else:
            current = self.measure([qubit], rng=rng)
        if current != int(value):
            self.apply_gate("x", [qubit])
        return self

    # -- state lifecycle ------------------------------------------------

    @abc.abstractmethod
    def initialize(
        self, num_qubits: int, initial_state: Statevector | None = None
    ) -> "SimulationBackend":
        """Reset to ``|0...0>`` on ``num_qubits`` (or to ``initial_state``)."""

    @property
    @abc.abstractmethod
    def num_qubits(self) -> int:
        """Number of qubits of the current state."""

    @abc.abstractmethod
    def snapshot(self) -> object:
        """Opaque checkpoint token for the current state."""

    @abc.abstractmethod
    def restore(self, token: object) -> "SimulationBackend":
        """Restore a state previously captured with :meth:`snapshot`.

        The token stays valid and may be restored again.
        """

    # -- evolution ------------------------------------------------------

    @abc.abstractmethod
    def apply_matrix(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "SimulationBackend":
        """Apply a unitary matrix to the listed qubits (``qubits[0]`` = LSB)."""

    @abc.abstractmethod
    def apply_controlled(
        self,
        matrix: np.ndarray,
        controls: Sequence[int],
        targets: Sequence[int],
    ) -> "SimulationBackend":
        """Apply ``matrix`` on ``targets`` conditioned on all controls = 1."""

    def apply_gate(
        self, name: str, qubits: Sequence[int], *params: float
    ) -> "SimulationBackend":
        """Apply a named gate from the :mod:`repro.sim.gates` library."""
        return self.apply_matrix(gate_matrix(name, params), qubits)

    # -- readout --------------------------------------------------------

    @abc.abstractmethod
    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Marginal outcome distribution over ``qubits`` (little-endian)."""

    @abc.abstractmethod
    def sample(
        self,
        qubits: Sequence[int] | None = None,
        shots: int = 1,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Draw ``shots`` measurement outcomes from the current state.

        Backends with a full state description (statevector, density matrix)
        sample without disturbing the state; backends with destructive
        readout may collapse it.  Callers that must keep the state — the
        incremental executor above all — bracket sampling in
        ``snapshot``/``restore`` rather than relying on non-destructive
        sampling, so either behaviour is conforming.
        """

    @abc.abstractmethod
    def measure(
        self,
        qubits: Sequence[int],
        rng: np.random.Generator | int | None = None,
    ) -> int:
        """Projectively measure ``qubits``, collapsing the state."""

    def marginal_cdf(self, qubits: Sequence[int]) -> "np.ndarray | None":
        """The outcome CDF :meth:`sample` draws ``qubits`` from, or ``None``.

        Where not ``None``, ``sample(qubits, shots, rng)`` returns exactly
        ``kernels.draw_from_cdf(marginal_cdf(qubits), rng, shots)`` while the
        state and readout model stay as they are, so the plan cache can
        record it once per breakpoint.  ``None`` (the default) marks a draw
        that is not one marginal, such as per-member trajectory readout.
        """
        return None

    # -- conversion -----------------------------------------------------

    def to_statevector(self, copy: bool = True) -> Statevector:
        """Dense statevector view of the state, when the backend has one."""
        raise NotImplementedError(
            f"backend {self.name!r} cannot produce a statevector"
        )


class StatevectorBackend(SimulationBackend):
    """Dense statevector backend built on the kernels in :mod:`repro.sim.kernels`.

    Controlled gates go through the index-masked kernel (the base matrix is
    applied only on the control-satisfied subspace; the dense controlled
    unitary is never built) and 1-/2-qubit gates take vectorised fast paths.
    """

    name = "statevector"

    def __init__(self, num_qubits: int | None = None):
        super().__init__()
        self._state: Statevector | None = None
        if num_qubits is not None:
            self.initialize(num_qubits)

    # -- state lifecycle ------------------------------------------------

    def initialize(
        self, num_qubits: int, initial_state: Statevector | None = None
    ) -> "StatevectorBackend":
        if initial_state is not None:
            if initial_state.num_qubits != num_qubits:
                raise ValueError("initial state has the wrong number of qubits")
            self._state = initial_state.copy()
        else:
            self._state = Statevector(num_qubits)
        return self

    @property
    def num_qubits(self) -> int:
        return self._require_state().num_qubits

    def snapshot(self) -> np.ndarray:
        return self._require_state().data.copy()

    def restore(self, token: object) -> "StatevectorBackend":
        state = self._require_state()
        data = np.asarray(token)
        if data.shape != state.data.shape:
            raise ValueError("snapshot does not match the current register size")
        state.data = data.copy()
        return self

    # -- evolution ------------------------------------------------------

    def apply_matrix(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "StatevectorBackend":
        self._require_state().apply_matrix(matrix, qubits)
        self.gates_applied += 1
        return self

    def apply_controlled(
        self,
        matrix: np.ndarray,
        controls: Sequence[int],
        targets: Sequence[int],
    ) -> "StatevectorBackend":
        self._require_state().apply_controlled(matrix, controls, targets)
        self.gates_applied += 1
        return self

    # -- readout --------------------------------------------------------

    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        return self._require_state().probabilities(qubits)

    def sample(
        self,
        qubits: Sequence[int] | None = None,
        shots: int = 1,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        return self._require_state().sample(qubits, shots=shots, rng=rng)

    def marginal_cdf(self, qubits: Sequence[int]) -> np.ndarray:
        return _kernels.outcome_cdf(self.probabilities(qubits))

    def measure(
        self,
        qubits: Sequence[int],
        rng: np.random.Generator | int | None = None,
    ) -> int:
        return self._require_state().measure(qubits, rng=rng)

    # -- conversion -----------------------------------------------------

    def to_statevector(self, copy: bool = True) -> Statevector:
        state = self._require_state()
        return state.copy() if copy else state

    def _require_state(self) -> Statevector:
        if self._state is None:
            raise RuntimeError("backend not initialised; call initialize() first")
        return self._state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        qubits = self._state.num_qubits if self._state is not None else None
        return f"StatevectorBackend(num_qubits={qubits})"
