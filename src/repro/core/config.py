"""`RunConfig`: the frozen, validated, serializable run configuration.

:class:`RunConfig` is the only way to configure a checking run: the checker,
the executor, :func:`~repro.core.checker.check_program`, every
:mod:`repro.workloads` sweep and the job service all take one, as a single
first-class value:

* **frozen & validated** — every field is normalised and checked at
  construction, so an invalid configuration fails where it is written, not
  three layers down inside the executor;
* **derivable** — :meth:`RunConfig.replace` returns a new validated config
  with overrides applied (sweeps derive one config per sweep point);
* **serializable** — :meth:`RunConfig.to_dict` / :meth:`RunConfig.from_dict`
  (and the ``to_json``/``from_json`` wrappers) round-trip through plain JSON,
  including noise models (Kraus operators as ``[re, im]`` matrices) and
  readout error, so one JSON blob pins a seeded checking run exactly;
* **seed-spelling normalisation** — ``seed`` accepts a Python int, a NumPy
  integer, or a ``numpy.random.SeedSequence`` and stores a plain int
  (``None`` keeps OS entropy).  Live ``numpy.random.Generator`` objects are
  deliberately rejected: a generator is unseedable state, not configuration —
  hold one in a :class:`repro.Session` instead.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..sim.backend import SimulationBackend
from ..sim.measurement import ReadoutErrorModel
from ..sim.noise import KrausChannel, NoiseModel
from .assertions import DEFAULT_SIGNIFICANCE

__all__ = ["RunConfig"]

_MODES = ("sample", "rerun")


def _normalise_seed(seed) -> int | None:
    """Normalise every accepted seed spelling to a plain int (or None)."""
    if seed is None:
        return None
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        if entropy is None:
            raise ValueError("SeedSequence carries no entropy to serialise")
        return int(entropy)
    if isinstance(seed, (bool, np.bool_)):
        raise TypeError("seed must be an integer, SeedSequence, or None")
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    if isinstance(seed, np.random.Generator):
        raise TypeError(
            "a live numpy Generator is state, not configuration; pass an "
            "integer seed (or hold the generator in a repro.Session)"
        )
    raise TypeError(
        f"seed must be an integer, SeedSequence, or None; got {type(seed)!r}"
    )


def _normalise_readout(readout) -> ReadoutErrorModel | None:
    if readout is None or isinstance(readout, ReadoutErrorModel):
        return readout
    if isinstance(readout, (int, float)) and not isinstance(readout, bool):
        rate = float(readout)
        return ReadoutErrorModel(p01=rate, p10=rate)
    raise TypeError(
        "readout_error must be a ReadoutErrorModel, a symmetric flip "
        f"probability, or None; got {type(readout)!r}"
    )


# -- JSON helpers -----------------------------------------------------------


def _matrix_to_json(matrix: np.ndarray) -> list:
    """Complex matrix -> nested ``[re, im]`` pairs (JSON has no complex)."""
    return [
        [[float(entry.real), float(entry.imag)] for entry in row]
        for row in np.asarray(matrix, dtype=complex)
    ]


def _matrix_from_json(data) -> np.ndarray:
    return np.array(
        [[complex(entry[0], entry[1]) for entry in row] for row in data],
        dtype=complex,
    )


def _readout_to_dict(model: ReadoutErrorModel) -> dict:
    return {"p01": float(model.p01), "p10": float(model.p10)}


def _readout_from_dict(data: Mapping) -> ReadoutErrorModel:
    return ReadoutErrorModel(
        p01=float(data.get("p01", 0.0)), p10=float(data.get("p10", 0.0))
    )


def _noise_to_dict(model: NoiseModel) -> dict:
    payload = {
        "gate_channels": [
            {
                "name": channel.name,
                "operators": [_matrix_to_json(op) for op in channel.operators],
            }
            for channel in model.gate_channels
        ],
        "readout": _readout_to_dict(model.readout),
    }
    if model.importance_boost is not None:
        payload["importance_boost"] = float(model.importance_boost)
    return payload


def _noise_from_dict(data: Mapping) -> NoiseModel:
    channels = tuple(
        KrausChannel(
            name=channel["name"],
            operators=tuple(
                _matrix_from_json(op) for op in channel["operators"]
            ),
        )
        for channel in data.get("gate_channels", [])
    )
    readout = data.get("readout")
    return NoiseModel(
        gate_channels=channels,
        readout=_readout_from_dict(readout) if readout else ReadoutErrorModel(),
        importance_boost=data.get("importance_boost"),
    )


@dataclass(frozen=True)
class RunConfig:
    """Everything one assertion-checking run depends on, as one frozen value.

    Fields
    ------
    ensemble_size:
        Measurements drawn per breakpoint (paper default 16).
    significance:
        Chi-square significance level of every assertion evaluator.
    seed:
        Root seed of the run's rng stream (``None`` = OS entropy).  Accepts
        int / NumPy integer / ``SeedSequence`` spellings, stored as int.
    mode:
        ``"sample"`` (one incremental plan walk) or ``"rerun"`` (per-member
        prefix re-simulation).
    backend:
        Registry name (``"statevector"``, ``"density"``, ``"stabilizer"``,
        ``"auto"``, ``"trajectory"``, …), a backend instance, a zero-argument
        factory, or ``None`` for the default.  Only registry names
        serialize.
    readout_error:
        Classical measurement channel, or a bare float for a symmetric
        flip probability, or ``None``.
    noise:
        Per-gate :class:`~repro.sim.noise.NoiseModel` (a bare
        :class:`~repro.sim.noise.KrausChannel` or sequence of channels is
        wrapped), or ``None``.
    converge / se_cutoff / max_batches:
        Convergence policy: with ``converge=True`` the checker keeps
        appending trajectory batches until the worst per-category standard
        error of every breakpoint ensemble drops to ``se_cutoff`` (or
        ``max_batches`` walks have run).
    shard / max_workers:
        Sweep sharding policy: with ``shard=True`` the repeated-trial
        workload helpers (:mod:`repro.workloads`) run their checking runs
        as jobs of a :class:`~repro.service.LocalService` with
        ``max_workers`` worker slots (``None`` = one per CPU core), via
        :mod:`repro.workloads.sharding`.  Per-point seeds are spawned from
        one ``SeedSequence`` and results merge in deterministic point
        order, so a sharded sweep is byte-identical to the serial run.
    static_preflight:
        With ``static_preflight=True`` the checker first asks the stabilizer
        abstract interpreter (:mod:`repro.analysis`) to decide each
        breakpoint; PROVEN/REFUTED assertions skip ensemble sampling and
        land in the report with ``method="static"``.  Only applies to
        noise-free, ideal-readout runs — any noise or readout channel
        silently reverts every breakpoint to sampling.  Off by default
        because skipping draws advances the rng stream differently than a
        fully sampled run.
    max_dense_qubits:
        Cap on the register width any dense (statevector/density) backend
        may allocate in this run.  ``None`` — the default — derives the cap
        from host memory (see :func:`repro.sim.memory.dense_qubit_budget`,
        overridable via the ``REPRO_MAX_DENSE_QUBITS`` environment
        variable); an explicit int pins it.  Over-budget dense requests
        raise an actionable error (or route to the tableau when the plan is
        Clifford under ``backend="auto"``) instead of attempting the
        allocation.
    max_support:
        Cap on the measurement-support enumeration of the static analyzer
        (:mod:`repro.analysis`); ``None`` keeps the module default
        (``SUPPORT_LIMIT``).  Larger values let the abstract interpreter
        decide assertions over states with wider sparse support at
        proportional cost.
    max_seconds:
        Wall-clock bound on :meth:`~repro.core.checker.StatisticalAssertionChecker.run_until_converged`:
        when a batch finishes past the bound the partial report is returned
        with its convergence rows flagged ``converged=False,
        reason="timeout"`` instead of looping on to ``max_batches``.
        ``None`` (the default) keeps the run unbounded in time.
    observable_shots_per_setting:
        Shots drawn per grouped measurement setting when an
        ``assert_observable`` breakpoint is sampled (ignored on the exact
        stabilizer path, which costs zero shots).
    group_observables:
        With ``group_observables=True`` (default) qubit-wise-commuting
        observable terms share one tensor-product-basis measurement setting
        (see :mod:`repro.observables.grouping`); ``False`` measures one
        setting per term, which is the ungrouped baseline the benchmark
        compares against.
    job_timeout / max_retries / backoff_base:
        Job-execution policy for :mod:`repro.service`, and so for every
        point of a sharded sweep (:mod:`repro.workloads.sharding`):
        ``job_timeout`` is the per-job wall-clock budget in seconds before
        the worker subprocess is killed and the job lands in the ``TIMEOUT``
        state (``None`` = no timeout); ``max_retries`` bounds how many times
        a *crashed* worker (SIGKILL, OOM, abnormal exit) is retried before
        the job fails with its structured failure chain; ``backoff_base``
        seeds the exponential backoff (with jitter) slept between retries.
    """

    ensemble_size: int = 16
    significance: float = DEFAULT_SIGNIFICANCE
    seed: int | None = None
    mode: str = "sample"
    backend: "str | SimulationBackend | Callable[[], SimulationBackend] | None" = None
    readout_error: ReadoutErrorModel | None = None
    noise: NoiseModel | None = None
    converge: bool = False
    se_cutoff: float = 0.025
    max_batches: int = 8
    shard: bool = False
    max_workers: int | None = None
    static_preflight: bool = False
    max_dense_qubits: int | None = None
    max_support: int | None = None
    max_seconds: float | None = None
    observable_shots_per_setting: int = 256
    group_observables: bool = True
    job_timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.05

    def __post_init__(self) -> None:
        ensemble_size = int(self.ensemble_size)
        if ensemble_size <= 0:
            raise ValueError("ensemble_size must be positive")
        object.__setattr__(self, "ensemble_size", ensemble_size)

        significance = float(self.significance)
        if not 0.0 < significance < 1.0:
            raise ValueError("significance must be in (0, 1)")
        object.__setattr__(self, "significance", significance)

        object.__setattr__(self, "seed", _normalise_seed(self.seed))

        if self.mode not in _MODES:
            raise ValueError("mode must be 'sample' or 'rerun'")

        backend = self.backend
        if backend is not None and not isinstance(backend, str):
            if not (isinstance(backend, SimulationBackend) or callable(backend)):
                raise TypeError(
                    "backend must be a registry name, a SimulationBackend "
                    f"instance, a factory, or None; got {type(backend)!r}"
                )

        object.__setattr__(
            self, "readout_error", _normalise_readout(self.readout_error)
        )
        object.__setattr__(self, "noise", NoiseModel.coerce(self.noise))

        object.__setattr__(self, "converge", bool(self.converge))

        se_cutoff = float(self.se_cutoff)
        if not 0.0 < se_cutoff < 1.0:
            raise ValueError(f"se_cutoff must be in (0, 1), got {se_cutoff}")
        object.__setattr__(self, "se_cutoff", se_cutoff)

        max_batches = int(self.max_batches)
        if max_batches <= 0:
            raise ValueError("max_batches must be positive")
        object.__setattr__(self, "max_batches", max_batches)

        object.__setattr__(self, "shard", bool(self.shard))
        object.__setattr__(self, "static_preflight", bool(self.static_preflight))

        if self.max_workers is not None:
            max_workers = int(self.max_workers)
            if max_workers <= 0:
                raise ValueError("max_workers must be positive (or None)")
            object.__setattr__(self, "max_workers", max_workers)

        if self.max_dense_qubits is not None:
            max_dense_qubits = int(self.max_dense_qubits)
            if max_dense_qubits <= 0:
                raise ValueError("max_dense_qubits must be positive (or None)")
            object.__setattr__(self, "max_dense_qubits", max_dense_qubits)

        if self.max_support is not None:
            max_support = int(self.max_support)
            if max_support <= 0:
                raise ValueError("max_support must be positive (or None)")
            object.__setattr__(self, "max_support", max_support)

        if self.max_seconds is not None:
            max_seconds = float(self.max_seconds)
            if max_seconds <= 0.0:
                raise ValueError("max_seconds must be positive (or None)")
            object.__setattr__(self, "max_seconds", max_seconds)

        observable_shots = int(self.observable_shots_per_setting)
        if observable_shots <= 0:
            raise ValueError("observable_shots_per_setting must be positive")
        object.__setattr__(self, "observable_shots_per_setting", observable_shots)
        object.__setattr__(self, "group_observables", bool(self.group_observables))

        if self.job_timeout is not None:
            job_timeout = float(self.job_timeout)
            if job_timeout <= 0.0:
                raise ValueError("job_timeout must be positive (or None)")
            object.__setattr__(self, "job_timeout", job_timeout)

        max_retries = int(self.max_retries)
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        object.__setattr__(self, "max_retries", max_retries)

        backoff_base = float(self.backoff_base)
        if backoff_base < 0.0:
            raise ValueError("backoff_base must be non-negative")
        object.__setattr__(self, "backoff_base", backoff_base)

    # ------------------------------------------------------------------

    def replace(self, **overrides) -> "RunConfig":
        """A new config with ``overrides`` applied (re-validated)."""
        return dataclasses.replace(self, **overrides)

    @classmethod
    def coerce(cls, value, *, caller: str = "RunConfig") -> "RunConfig":
        """Coerce a config spelling into a ``RunConfig``.

        Accepts ``None`` (defaults), a ``RunConfig`` (as-is), or a mapping
        (fed through :meth:`from_dict`); the one shared coercion every
        config-accepting entry point uses.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise TypeError(
            f"{caller}: config must be a RunConfig, mapping, or None; "
            f"got {type(value)!r}"
        )

    def rng(self) -> np.random.Generator:
        """A fresh generator seeded from :attr:`seed`."""
        return np.random.default_rng(self.seed)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible dict; inverse of :meth:`from_dict`.

        Only registry-name backends serialize — an instance or factory is
        process state, exactly like a live rng, and raises ``TypeError``.
        """
        if self.backend is not None and not isinstance(self.backend, str):
            raise TypeError(
                "only registry-name backends are serializable; got "
                f"{self.backend!r} (register it with "
                "repro.sim.register_backend and refer to it by name)"
            )
        return {
            "ensemble_size": self.ensemble_size,
            "significance": self.significance,
            "seed": self.seed,
            "mode": self.mode,
            "backend": self.backend,
            "readout_error": (
                _readout_to_dict(self.readout_error)
                if self.readout_error is not None
                else None
            ),
            "noise": _noise_to_dict(self.noise) if self.noise is not None else None,
            "converge": self.converge,
            "se_cutoff": self.se_cutoff,
            "max_batches": self.max_batches,
            "shard": self.shard,
            "max_workers": self.max_workers,
            "static_preflight": self.static_preflight,
            "max_dense_qubits": self.max_dense_qubits,
            "max_support": self.max_support,
            "max_seconds": self.max_seconds,
            "observable_shots_per_setting": self.observable_shots_per_setting,
            "group_observables": self.group_observables,
            "job_timeout": self.job_timeout,
            "max_retries": self.max_retries,
            "backoff_base": self.backoff_base,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Rejects unknown keys (typos must not silently change a run).
        """
        payload = dict(data)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown RunConfig keys {sorted(unknown)}; expected a "
                f"subset of {sorted(known)}"
            )
        readout = payload.get("readout_error")
        if isinstance(readout, Mapping):
            payload["readout_error"] = _readout_from_dict(readout)
        noise = payload.get("noise")
        if isinstance(noise, Mapping):
            payload["noise"] = _noise_from_dict(noise)
        return cls(**payload)

    def to_json(self, **json_kwargs) -> str:
        return json.dumps(self.to_dict(), **json_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))
