"""Dense statevector simulation.

This is the workhorse that replaces the QX simulator from the paper: all
benchmark programs in the paper use at most ~15 qubits, so a dense
double-precision statevector reproduces the ideal measurement statistics the
paper's assertions consume.

Conventions
-----------
* ``state[i]`` is the amplitude of computational basis state ``|i>`` where bit
  ``j`` of the integer ``i`` is the value of qubit ``j`` (little-endian).
* Gate matrices follow the layout documented in :mod:`repro.sim.gates`.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

import numpy as np

from . import gates as _gates
from . import kernels as _kernels

__all__ = ["Statevector"]


class Statevector:
    """A pure quantum state over ``num_qubits`` qubits.

    Parameters
    ----------
    num_qubits:
        Number of qubits in the register file.
    data:
        Optional initial amplitudes of length ``2 ** num_qubits``.  When
        omitted the state is initialised to ``|0...0>``.
    """

    __slots__ = ("num_qubits", "data")

    def __init__(self, num_qubits: int, data: np.ndarray | None = None):
        if num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        self.num_qubits = int(num_qubits)
        dim = 1 << self.num_qubits
        if data is None:
            amplitudes = np.zeros(dim, dtype=complex)
            amplitudes[0] = 1.0
        else:
            amplitudes = np.asarray(data, dtype=complex).reshape(-1).copy()
            if amplitudes.shape[0] != dim:
                raise ValueError(
                    f"expected {dim} amplitudes for {num_qubits} qubits, "
                    f"got {amplitudes.shape[0]}"
                )
        self.data = amplitudes

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_int(cls, value: int, num_qubits: int) -> "Statevector":
        """Computational basis state ``|value>`` on ``num_qubits`` qubits."""
        dim = 1 << num_qubits
        if not 0 <= value < dim:
            raise ValueError(f"value {value} out of range for {num_qubits} qubits")
        data = np.zeros(dim, dtype=complex)
        data[value] = 1.0
        return cls(num_qubits, data)

    @classmethod
    def from_label(cls, label: str) -> "Statevector":
        """Basis state from a bit-string label.

        The label is written most-significant qubit first, e.g. ``"10"`` is
        qubit 1 = 1 and qubit 0 = 0, i.e. the integer 2.
        """
        if not label or any(c not in "01" for c in label):
            raise ValueError(f"invalid basis label: {label!r}")
        value = int(label, 2)
        return cls.from_int(value, len(label))

    @classmethod
    def uniform_superposition(cls, num_qubits: int) -> "Statevector":
        """Equal superposition of all basis states (H on every qubit)."""
        dim = 1 << num_qubits
        data = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
        return cls(num_qubits, data)

    def copy(self) -> "Statevector":
        return Statevector(self.num_qubits, self.data)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def is_normalized(self, atol: float = 1e-9) -> bool:
        return abs(self.norm() - 1.0) <= atol

    def normalize(self) -> "Statevector":
        """Normalise in place and return ``self``."""
        norm = self.norm()
        if norm == 0.0:
            raise ValueError("cannot normalise the zero vector")
        self.data /= norm
        return self

    def inner(self, other: "Statevector") -> complex:
        """Inner product ``<self|other>``."""
        self._check_compatible(other)
        return complex(np.vdot(self.data, other.data))

    def fidelity(self, other: "Statevector") -> float:
        """State fidelity ``|<self|other>|^2``."""
        return float(abs(self.inner(other)) ** 2)

    def equiv(self, other: "Statevector", atol: float = 1e-9) -> bool:
        """True when the states are equal up to a global phase."""
        self._check_compatible(other)
        return bool(abs(abs(self.inner(other)) - 1.0) <= atol)

    def _check_compatible(self, other: "Statevector") -> None:
        if not isinstance(other, Statevector):
            raise TypeError("expected a Statevector")
        if other.num_qubits != self.num_qubits:
            raise ValueError("statevectors act on different numbers of qubits")

    # ------------------------------------------------------------------
    # Gate application
    # ------------------------------------------------------------------

    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int] | int) -> "Statevector":
        """Apply a unitary ``matrix`` to the listed ``qubits`` in place.

        ``qubits[0]`` is the least significant index of the matrix, matching
        the layout of :mod:`repro.sim.gates`.
        """
        qubit_list = _kernels.validated_qubits(qubits, self.num_qubits)
        matrix = _kernels.validated_matrix(matrix, len(qubit_list))
        _kernels.apply_matrix(self.data, self.num_qubits, matrix, qubit_list)
        return self

    def apply_controlled(
        self,
        matrix: np.ndarray,
        controls: Sequence[int] | int,
        targets: Sequence[int] | int,
    ) -> "Statevector":
        """Apply ``matrix`` on ``targets`` controlled by ``controls`` (all = 1).

        The base matrix is applied only on the control-satisfied subspace
        (index masking); the dense controlled unitary is never materialised.
        """
        control_list = _kernels.validated_qubits(controls, self.num_qubits)
        target_list = _kernels.validated_qubits(targets, self.num_qubits)
        if set(control_list) & set(target_list):
            raise ValueError("control and target qubits overlap")
        matrix = _kernels.validated_matrix(matrix, len(target_list))
        _kernels.apply_controlled(
            self.data, self.num_qubits, matrix, control_list, target_list
        )
        return self

    def apply_gate(self, name: str, qubits: Sequence[int] | int, *params: float) -> "Statevector":
        """Apply a named gate from the :mod:`repro.sim.gates` library."""
        return self.apply_matrix(_gates.gate_matrix(name, params), qubits)

    # ------------------------------------------------------------------
    # Probabilities, sampling and measurement
    # ------------------------------------------------------------------

    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Marginal probability distribution over the listed qubits.

        The returned array has length ``2 ** len(qubits)`` and index ``v``
        holds the probability that the listed qubits, read little-endian in
        the given order, encode the integer ``v``.  When ``qubits`` is omitted
        the full distribution over all qubits is returned.
        """
        probs = np.abs(self.data) ** 2
        if qubits is None:
            return probs
        qubit_list = _kernels.validated_qubits(qubits, self.num_qubits)
        return _kernels.marginal_probabilities(probs, self.num_qubits, qubit_list)

    def probability_of_outcome(self, qubits: Sequence[int], value: int) -> float:
        """Probability of measuring ``value`` on the listed qubits."""
        probs = self.probabilities(qubits)
        if not 0 <= value < probs.shape[0]:
            raise ValueError("outcome value out of range")
        return float(probs[value])

    def sample(
        self,
        qubits: Sequence[int] | None = None,
        shots: int = 1,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Draw ``shots`` measurement outcomes without collapsing the state.

        Because the benchmark programs measure only at the very end of each
        breakpoint program, sampling the final distribution is statistically
        identical to running the program ``shots`` times.
        """
        return _kernels.draw_outcomes(self.probabilities(qubits), _as_rng(rng), shots)

    def sample_counts(
        self,
        qubits: Sequence[int] | None = None,
        shots: int = 1024,
        rng: np.random.Generator | int | None = None,
    ) -> Counter:
        """Counter of sampled outcomes (integer outcome -> occurrences)."""
        outcomes = self.sample(qubits, shots, rng)
        return Counter(int(v) for v in outcomes)

    def measure(
        self,
        qubits: Sequence[int] | int,
        rng: np.random.Generator | int | None = None,
    ) -> int:
        """Projectively measure the listed qubits, collapsing the state.

        Returns the measured integer value (little-endian in the qubit order
        given).  The state is renormalised after the projection.
        """
        qubit_list = _kernels.validated_qubits(qubits, self.num_qubits)
        probs = _kernels.marginal_probabilities(
            np.abs(self.data) ** 2, self.num_qubits, qubit_list
        )
        outcome = _kernels.draw_outcomes(probs, _as_rng(rng))
        self.data = _kernels.project(self.data, self.num_qubits, qubit_list, outcome)
        return outcome

    def project(self, qubits: Sequence[int] | int, value: int) -> "Statevector":
        """Project onto the subspace where ``qubits`` encode ``value``."""
        qubit_list = _kernels.validated_qubits(qubits, self.num_qubits)
        self.data = _kernels.project(self.data, self.num_qubits, qubit_list, value)
        return self

    def reset_qubit(self, qubit: int, rng: np.random.Generator | int | None = None) -> "Statevector":
        """Measure a qubit and flip it back to ``|0>`` if the result was 1."""
        outcome = self.measure([qubit], rng=rng)
        if outcome == 1:
            self.apply_matrix(_gates.X, [qubit])
        return self

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------

    def expectation_value(self, matrix: np.ndarray, qubits: Sequence[int] | None = None) -> complex:
        """Expectation value of a Hermitian ``matrix`` on ``qubits``."""
        if qubits is None:
            qubits = list(range(self.num_qubits))
        bra = self.copy()
        bra.apply_matrix(matrix, qubits)
        return complex(np.vdot(self.data, bra.data))

    def amplitude(self, value: int) -> complex:
        """Amplitude of the computational basis state ``|value>``."""
        if not 0 <= value < self.dim:
            raise ValueError("basis state index out of range")
        return complex(self.data[value])

    def to_dict(self, threshold: float = 1e-12) -> dict[int, complex]:
        """Sparse dictionary view ``{basis_state: amplitude}``."""
        return {
            int(i): complex(a)
            for i, a in enumerate(self.data)
            if abs(a) > threshold
        }

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Statevector):
            return NotImplemented
        return self.num_qubits == other.num_qubits and bool(
            np.allclose(self.data, other.data)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Statevector(num_qubits={self.num_qubits})"


def _as_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Normalise the three accepted RNG spellings into a Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)
