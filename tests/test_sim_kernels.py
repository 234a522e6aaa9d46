"""The shared gate kernels: every path, on flat states and on batches.

Every gate whose matrix has exactly-zero off-diagonal entries is applied as
in-place phase multiplies on strided views of the state.  These tests run
every diagonal gate of :mod:`repro.sim.gates` (plus a random two-target
diagonal), with 0, 1 and 2 controls at random qubit positions, through both
kernel entry points on a flat state and on a batch, and through the density
backend, and check each result against the generic gather/scatter path.  The
generic kernels are patched to raise while the entry points run, which
proves diagonal gates never reach them; a matrix with one tiny but nonzero
off-diagonal must still take the generic path.

``TestEveryPathFlatAndBatched`` then drives each kernel path — diagonal,
1-qubit strided, gather (2 to 8 targets), the wide-operand contraction and
controlled gates — and checks that a flat state, a ``(1, 2**n)`` batch and
each row of a ``(B, 2**n)`` batch come out bit-identical.
"""

import numpy as np
import pytest

from repro.sim import DensityMatrixBackend, Statevector, gates
from repro.sim import kernels
from repro.sim.kernels import apply_controlled, apply_matrix

NUM_QUBITS = 5
BATCH = 3
SEED = 20190622

#: The generic kernels, held before any test patches them.
_GATHER_APPLY = kernels._gather_apply
_SUBSPACE_INDICES = kernels._subspace_indices


def _random_diagonal(rng, size):
    return np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size)))


def _diagonal_gates():
    rng = np.random.default_rng(SEED)
    return {
        "z": gates.Z,
        "s": gates.S,
        "sdg": gates.SDG,
        "t": gates.T,
        "tdg": gates.TDG,
        "rz": gates.rz(0.7),
        "phase": gates.phase(1.3),
        "p": gates.GATE_BUILDERS["p"](-0.4),
        "u1": gates.GATE_BUILDERS["u1"](2.9),
        "id": gates.I,
        "cz": gates.CZ,
        "random_2q": _random_diagonal(rng, 4),
    }


DIAGONAL_GATES = _diagonal_gates()


def _case(name, num_controls):
    """Random operand positions for one (gate, control count) case."""
    rng = np.random.default_rng([SEED, len(name), num_controls, ord(name[0])])
    matrix = DIAGONAL_GATES[name]
    num_targets = matrix.shape[0].bit_length() - 1
    qubits = rng.permutation(NUM_QUBITS)[: num_controls + num_targets]
    controls = [int(q) for q in qubits[:num_controls]]
    targets = [int(q) for q in qubits[num_controls:]]
    return matrix, controls, targets


def _random_states(count, seed=SEED):
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(count, 1 << NUM_QUBITS)) + 1j * rng.normal(
        size=(count, 1 << NUM_QUBITS)
    )
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def _generic(state, matrix, controls, targets):
    """The gather/scatter kernel applied to one flat state (a copy)."""
    out = np.array(state, dtype=complex)
    base = _SUBSPACE_INDICES(NUM_QUBITS, zero_bits=targets, one_bits=controls)
    _GATHER_APPLY(out, matrix, targets, base)
    return out


@pytest.fixture
def generic_kernels_raise(monkeypatch):
    """Make every generic kernel raise: diagonal gates must not reach them."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a diagonal gate reached a generic kernel")

    for name in ("_gather_apply", "_apply_1q_inplace", "_apply_dense_inplace"):
        monkeypatch.setattr(kernels, name, forbidden)


CASES = [
    (name, num_controls)
    for name in sorted(DIAGONAL_GATES)
    for num_controls in (0, 1, 2)
]


@pytest.mark.parametrize("name,num_controls", CASES)
class TestDiagonalPath:
    def test_single_state_entry_points(self, name, num_controls, generic_kernels_raise):
        matrix, controls, targets = _case(name, num_controls)
        (state,) = _random_states(1)
        expected = _generic(state, matrix, controls, targets)

        controlled_out = state.copy()
        apply_controlled(controlled_out, NUM_QUBITS, matrix, controls, targets)
        np.testing.assert_allclose(controlled_out, expected, atol=1e-12)

        # The full controlled matrix is diagonal too: the plain entry point
        # takes it on ``controls + targets`` through the same path.
        full_out = state.copy()
        full = gates.controlled(matrix, num_controls=num_controls)
        apply_matrix(full_out, NUM_QUBITS, full, controls + targets)
        np.testing.assert_allclose(full_out, expected, atol=1e-12)

    def test_batched_entry_points(self, name, num_controls, generic_kernels_raise):
        matrix, controls, targets = _case(name, num_controls)
        batch = _random_states(BATCH)
        expected = np.stack(
            [_generic(row, matrix, controls, targets) for row in batch]
        )

        controlled_out = batch.copy()
        apply_controlled(controlled_out, NUM_QUBITS, matrix, controls, targets)
        np.testing.assert_allclose(controlled_out, expected, atol=1e-12)

        full_out = batch.copy()
        full = gates.controlled(matrix, num_controls=num_controls)
        apply_matrix(full_out, NUM_QUBITS, full, controls + targets)
        np.testing.assert_allclose(full_out, expected, atol=1e-12)

    def test_density_backend_two_sided(self, name, num_controls, generic_kernels_raise):
        matrix, controls, targets = _case(name, num_controls)
        (state,) = _random_states(1)
        evolved = _generic(state, matrix, controls, targets)

        backend = DensityMatrixBackend().initialize(
            NUM_QUBITS, initial_state=Statevector(NUM_QUBITS, state)
        )
        backend.densify()
        backend.apply_controlled(matrix, controls, targets)
        rho = backend.to_density_matrix().data
        np.testing.assert_allclose(rho, np.outer(evolved, evolved.conj()), atol=1e-12)


class TestGenericPathKept:
    def _near_diagonal(self):
        matrix = gates.phase(0.9).copy()
        matrix[0, 1] = 1e-300
        return matrix

    def test_tiny_off_diagonal_takes_the_gather_path(self, monkeypatch):
        matrix = self._near_diagonal()
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return _GATHER_APPLY(*args, **kwargs)

        monkeypatch.setattr(kernels, "_gather_apply", spy)
        batch = _random_states(BATCH)
        expected = np.stack([_generic(row, matrix, [3], [1]) for row in batch])
        apply_controlled(batch, NUM_QUBITS, matrix, [3], [1])
        assert len(calls) == 1
        np.testing.assert_allclose(batch, expected, atol=1e-12)

    def test_tiny_off_diagonal_takes_the_dense_1q_path(self, monkeypatch):
        matrix = self._near_diagonal()
        calls = []
        dense_1q = kernels._apply_1q_inplace

        def spy(*args, **kwargs):
            calls.append(args)
            return dense_1q(*args, **kwargs)

        monkeypatch.setattr(kernels, "_apply_1q_inplace", spy)
        (state,) = _random_states(1)
        expected = _generic(state, matrix, [], [2])
        apply_matrix(state, NUM_QUBITS, matrix, [2])
        assert len(calls) == 1
        np.testing.assert_allclose(state, expected, atol=1e-12)

    def test_patched_kernels_catch_non_diagonal_gates(self, generic_kernels_raise):
        (state,) = _random_states(1)
        with pytest.raises(AssertionError, match="generic kernel"):
            apply_matrix(state, NUM_QUBITS, gates.H, [0])


# ---------------------------------------------------------------------------
# Every kernel path: flat state == (1, 2**n) batch == each row of a batch
# ---------------------------------------------------------------------------

#: (case id, num_qubits, num_controls, num_targets, diagonal, helper the
#: case must reach).
PATH_CASES = [
    ("diagonal", 5, 0, 2, True, "_apply_diagonal"),
    ("diagonal_controlled", 5, 2, 1, True, "_apply_diagonal"),
    ("strided_1q", 5, 0, 1, False, "_apply_1q_inplace"),
    *[(f"gather_{k}", 9, 0, k, False, "_gather_apply") for k in range(2, 9)],
    ("contraction_9", 10, 0, 9, False, "_apply_dense_inplace"),
    ("controlled_1q", 5, 1, 1, False, "_gather_apply"),
    ("controlled_2c2t", 6, 2, 2, False, "_gather_apply"),
    ("controlled_contraction", 10, 1, 9, False, "_apply_dense_inplace"),
]


def _random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _reference(state, num_qubits, matrix, controls, targets):
    """Controlled ``matrix`` on ``targets`` by one gather per basis state."""
    indices = np.arange(1 << num_qubits)
    offsets = np.array(
        [
            sum(((value >> j) & 1) << t for j, t in enumerate(targets))
            for value in range(matrix.shape[0])
        ]
    )
    values = sum(((indices >> t) & 1) << j for j, t in enumerate(targets))
    rest = indices & ~int(offsets[-1])
    gathered = state[rest[:, None] | offsets[None, :]]
    moved = np.einsum("iu,iu->i", matrix[values], gathered)
    active = np.ones(indices.shape, dtype=bool)
    for c in controls:
        active &= ((indices >> c) & 1) == 1
    return np.where(active, moved, state)


@pytest.mark.parametrize("case", PATH_CASES, ids=lambda case: case[0])
class TestEveryPathFlatAndBatched:
    def _setup(self, case, monkeypatch):
        name, num_qubits, num_controls, num_targets, diagonal, helper = case
        rng = np.random.default_rng([SEED, num_qubits, num_controls, num_targets])
        dim = 1 << num_targets
        matrix = (
            _random_diagonal(rng, dim) if diagonal else _random_unitary(rng, dim)
        )
        qubits = [int(q) for q in rng.permutation(num_qubits)]
        controls = qubits[:num_controls]
        targets = qubits[num_controls : num_controls + num_targets]
        batch = rng.normal(size=(BATCH, 1 << num_qubits)) + 1j * rng.normal(
            size=(BATCH, 1 << num_qubits)
        )
        batch /= np.linalg.norm(batch, axis=1, keepdims=True)
        calls = []
        original = getattr(kernels, helper)

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(kernels, helper, spy)

        def run(data):
            out = np.array(data, dtype=complex)
            if controls:
                result = apply_controlled(out, num_qubits, matrix, controls, targets)
            else:
                result = apply_matrix(out, num_qubits, matrix, targets)
            assert result is out
            return out

        return num_qubits, matrix, controls, targets, batch, run, calls

    def test_flat_single_row_and_batch_rows_are_bit_identical(self, case, monkeypatch):
        _, _, _, _, batch, run, calls = self._setup(case, monkeypatch)
        batched = run(batch)
        for row, member in zip(batch, batched):
            flat = run(row)
            single = run(row[None, :])
            assert single.shape == (1, row.shape[0])
            assert np.array_equal(flat, single[0])
            assert np.array_equal(flat, member)
        assert calls, f"{case[0]} never reached {case[5]}"

    def test_matches_the_per_index_reference(self, case, monkeypatch):
        num_qubits, matrix, controls, targets, batch, run, _ = self._setup(
            case, monkeypatch
        )
        expected = _reference(batch[0], num_qubits, matrix, controls, targets)
        np.testing.assert_allclose(run(batch[0]), expected, atol=1e-10)


class TestReadoutOperandChecks:
    """Each backend checks readout operands once, at its public method;
    ``marginal_probabilities`` and ``project`` trust what they are given."""

    @staticmethod
    def _readout_methods():
        from repro.sim import TrajectoryNoiseBackend

        state = Statevector(3)
        dense = DensityMatrixBackend().initialize(3).densify()
        batch = TrajectoryNoiseBackend(3, batch_size=2)
        single = TrajectoryNoiseBackend(3)
        return [
            state.probabilities,
            lambda qubits: state.measure(qubits, rng=0),
            lambda qubits: state.project(qubits, 0),
            dense.probabilities,
            batch.probabilities,
            batch.member_probabilities,
            batch.readout_probabilities,
            batch.sample,
            lambda qubits: single.measure(qubits, rng=0),
        ]

    @pytest.mark.parametrize(
        "qubits, message",
        [([3], "qubit index 3 out of range for 3 qubits"),
         ([0, 0], r"duplicate qubits in \[0, 0\]")],
    )
    def test_every_public_readout_method_rejects_bad_operands(self, qubits, message):
        for method in self._readout_methods():
            with pytest.raises(ValueError, match=message):
                method(qubits)

    @pytest.mark.parametrize("kind", ["statevector", "trajectory"])
    def test_a_rerun_collapse_checks_its_operands_once(self, monkeypatch, kind):
        import repro.sim.trajectory_backend as trajectory_module
        from repro.sim import TrajectoryNoiseBackend

        calls = []
        real = kernels.validated_qubits

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kernels, "validated_qubits", counted)
        monkeypatch.setattr(trajectory_module, "validated_qubits", counted)
        backend = Statevector(3) if kind == "statevector" else TrajectoryNoiseBackend(3)
        backend.apply_matrix(gates.H, [1])
        calls.clear()
        outcome = backend.measure([1, 2], rng=np.random.default_rng(SEED))
        assert len(calls) == 1
        assert outcome in (0, 1)


class TestCdfDraw:
    """``draw_from_cdf(outcome_cdf(p))`` is ``Generator.choice(p=...)``."""

    def test_matches_generator_choice_on_random_distributions(self):
        meta = np.random.default_rng(SEED)
        for trial in range(10_000):
            width = int(meta.integers(1, 257))
            probs = meta.random(width)
            probs[meta.random(width) < 0.3] = 0.0
            if not probs.sum():
                probs[int(meta.integers(width))] = 1.0
            shots = None if trial % 2 else int(meta.integers(0, 40))
            seed = int(meta.integers(1 << 62))
            reference = np.random.default_rng(seed)
            split = np.random.default_rng(seed)
            expected = reference.choice(width, size=shots, p=probs / probs.sum())
            drawn = kernels.draw_from_cdf(kernels.outcome_cdf(probs), split, shots)
            if shots is None:
                assert type(drawn) is int and drawn == expected
            else:
                assert drawn.dtype == np.int64
                np.testing.assert_array_equal(drawn, expected)
            assert split.random() == reference.random()

    def test_draw_outcomes_is_the_two_steps(self):
        probs = np.array([0.1, 0.0, 0.6, 0.3])
        cdf = kernels.outcome_cdf(probs)
        for shots in (None, 5):
            assert np.array_equal(
                kernels.draw_outcomes(probs, np.random.default_rng(SEED), shots),
                kernels.draw_from_cdf(cdf, np.random.default_rng(SEED), shots),
            )

    @pytest.mark.parametrize(
        "probs",
        [[0.0, 0.0], [1.0, np.nan], [np.inf, 1.0], [-0.5, 1.5], []],
        ids=["zero-sum", "nan", "inf", "negative", "empty"],
    )
    def test_bad_input_raises_like_choice(self, probs):
        probs = np.array(probs, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(ValueError):
                kernels.outcome_cdf(probs)
