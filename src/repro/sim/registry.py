"""Declarative backend registry: factories plus capability metadata.

Every simulation backend is published here as a :class:`BackendEntry` — a
zero-argument factory, a :class:`BackendCapabilities` record, and (for
backends that carry gate noise natively) a *noisy* factory.  The registry is
what makes backend selection declarative:

* ``make_backend(spec)`` resolves the universal backend spelling (registry
  name, instance, factory, ``None``) into an instance;
* ``resolve_backend_name(name, clifford=...)`` maps ``"auto"`` onto the
  highest-priority Clifford-native backend when the plan is all-Clifford —
  the executor no longer hard-codes ``"stabilizer"``;
* ``make_noisy_backend(name, noise, ...)`` routes a gate-noise model onto a
  backend purely from capability flags and per-entry delegates (a Pauli
  mixture unravels onto the trajectory engine, general Kraus noise falls
  back to the density matrix, Pauli-only backends reject non-Pauli models),
  replacing the executor's old ``if``/``elif`` chain.

Third-party backends plug in with :func:`register_backend` and are then
reachable through every ``backend=`` / :class:`repro.RunConfig` spelling in
the stack without touching the executor: declare ``clifford_native=True``
with a high ``priority`` and even ``backend="auto"`` routes Clifford plans
to the new backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .backend import SimulationBackend, StatevectorBackend

__all__ = [
    "BackendCapabilities",
    "BackendEntry",
    "register_backend",
    "unregister_backend",
    "list_backends",
    "get_backend_entry",
    "backend_capabilities",
    "clifford_backend_name",
    "resolve_backend_name",
    "resolve_streams",
    "make_backend",
    "make_noisy_backend",
]

#: Gate-noise families a backend can carry natively.
_NOISE_FAMILIES = frozenset({"pauli", "kraus"})


@dataclass(frozen=True)
class BackendCapabilities:
    """Capability flags consulted by the declarative routing rules.

    ``gate_noise`` names the channel families the backend simulates itself
    (``"pauli"`` mixtures, general ``"kraus"`` maps); ``native_readout``
    marks backends that apply readout error inside their own sampling path;
    ``clifford_native`` marks backends that run Clifford circuits without a
    dense state (what ``"auto"`` routes all-Clifford plans to, preferring
    the highest ``priority``); ``dense`` marks backends that can produce a
    dense statevector; ``batched`` marks backends that carry whole
    trajectory ensembles through one walk.
    """

    gate_noise: frozenset = frozenset()
    native_readout: bool = False
    clifford_native: bool = False
    dense: bool = True
    batched: bool = False
    priority: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        families = frozenset(self.gate_noise)
        unknown = families - _NOISE_FAMILIES
        if unknown:
            raise ValueError(
                f"unknown gate-noise families {sorted(unknown)}; "
                f"expected a subset of {sorted(_NOISE_FAMILIES)}"
            )
        object.__setattr__(self, "gate_noise", families)

    def to_dict(self) -> dict:
        """JSON-friendly view (used by docs/tooling, not round-tripped)."""
        return {
            "gate_noise": sorted(self.gate_noise),
            "native_readout": self.native_readout,
            "clifford_native": self.clifford_native,
            "dense": self.dense,
            "batched": self.batched,
            "priority": self.priority,
            "description": self.description,
        }


@dataclass(frozen=True)
class BackendEntry:
    """One registered backend: factories, capabilities, and noise delegates.

    ``noisy_factory(noise=..., batch_size=..., rng_streams=...,
    readout_error=...)`` builds the backend with a gate-noise model
    installed; ``rng_streams`` may be a sequence of generators or a
    zero-argument provider (see :func:`resolve_streams`) so stream spawning
    only consumes entropy when the chosen backend actually needs it.
    ``pauli_delegate`` / ``kraus_delegate`` name the registry entries that
    carry noise on this backend's behalf (the statevector delegates Pauli
    mixtures to the trajectory engine and general Kraus maps to the density
    matrix); a missing delegate means the family is rejected.
    ``clifford_aware`` entries (``"auto"``/``"hybrid"``) re-route
    all-Clifford plans to :func:`clifford_backend_name`.
    """

    name: str
    factory: Callable[[], SimulationBackend]
    capabilities: BackendCapabilities = field(default_factory=BackendCapabilities)
    noisy_factory: Callable[..., SimulationBackend] | None = None
    pauli_delegate: str | None = None
    kraus_delegate: str | None = None
    clifford_aware: bool = False


#: The registry proper: name -> entry.
_REGISTRY: dict[str, BackendEntry] = {}


def register_backend(
    name: str,
    factory: Callable[[], SimulationBackend],
    capabilities: BackendCapabilities | None = None,
    *,
    noisy_factory: Callable[..., SimulationBackend] | None = None,
    pauli_delegate: str | None = None,
    kraus_delegate: str | None = None,
    clifford_aware: bool = False,
) -> None:
    """Register a backend factory under ``name`` (overwrites existing).

    ``capabilities`` defaults to a plain dense backend with no native noise
    path, which is the right description for most third-party backends; pass
    a :class:`BackendCapabilities` (and a ``noisy_factory`` when
    ``gate_noise`` is non-empty) to opt into the declarative noise routing.
    """
    capabilities = capabilities or BackendCapabilities()
    if capabilities.gate_noise and noisy_factory is None:
        raise ValueError(
            f"backend {name!r} declares native gate-noise support "
            f"{sorted(capabilities.gate_noise)} but no noisy_factory"
        )
    _REGISTRY[name] = BackendEntry(
        name=name,
        factory=factory,
        capabilities=capabilities,
        noisy_factory=noisy_factory,
        pauli_delegate=pauli_delegate,
        kraus_delegate=kraus_delegate,
        clifford_aware=clifford_aware,
    )


def unregister_backend(name: str) -> None:
    """Remove a registered backend (KeyError when absent)."""
    del _REGISTRY[name]


def get_backend_entry(name: str) -> BackendEntry:
    """The full registry entry for ``name`` (KeyError with the known names)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def list_backends() -> list[str]:
    """Sorted names of every registered backend."""
    return sorted(_REGISTRY)


def backend_capabilities(name: str) -> BackendCapabilities:
    """Capability flags of a registered backend."""
    return get_backend_entry(name).capabilities


def clifford_backend_name() -> str:
    """Name of the preferred Clifford-native backend (highest priority).

    This is what ``backend="auto"`` resolves to for all-Clifford plans; a
    third-party tableau registered with ``clifford_native=True`` and a
    higher ``priority`` than the built-in stabilizer backend takes over the
    routing without any executor change.
    """
    candidates = [
        entry
        for entry in _REGISTRY.values()
        if entry.capabilities.clifford_native
    ]
    if not candidates:
        raise KeyError("no registered backend is Clifford-native")
    return max(
        candidates, key=lambda entry: (entry.capabilities.priority, entry.name)
    ).name


def resolve_backend_name(
    name: str | None, clifford: bool | None = None
) -> str:
    """Resolve a registry name, applying ``"auto"`` Clifford routing.

    ``None`` means the default statevector backend.  A ``clifford_aware``
    entry (``"auto"``/``"hybrid"``) resolves to the preferred
    Clifford-native backend when the plan is known to be all-Clifford;
    every other name resolves to itself (existence-checked).
    """
    resolved = name or StatevectorBackend.name
    entry = get_backend_entry(resolved)
    if entry.clifford_aware and clifford is True:
        return clifford_backend_name()
    return resolved


def make_backend(
    spec: "str | SimulationBackend | Callable[[], SimulationBackend] | None" = None,
) -> SimulationBackend:
    """Resolve a backend spec into a backend instance.

    ``None`` means the default statevector backend; a string looks up the
    registry; an instance is used as-is (sharing its state with the caller);
    anything callable is treated as a factory.
    """
    if spec is None:
        return get_backend_entry(StatevectorBackend.name).factory()
    if isinstance(spec, SimulationBackend):
        return spec
    if isinstance(spec, str):
        try:
            factory = _REGISTRY[spec].factory
        except KeyError:
            raise KeyError(
                f"unknown backend {spec!r}; available: {', '.join(sorted(_REGISTRY))}"
            ) from None
        return factory()
    if callable(spec):
        backend = spec()
        if not isinstance(backend, SimulationBackend):
            raise TypeError("backend factory did not return a SimulationBackend")
        return backend
    raise TypeError(f"cannot interpret backend spec {spec!r}")


def resolve_streams(
    rng_streams: "Sequence[np.random.Generator] | Callable[[], Sequence[np.random.Generator]] | None",
) -> "Sequence[np.random.Generator] | None":
    """Materialise a lazy per-trajectory stream provider.

    Noisy factories receive either a ready sequence of generators or a
    zero-argument provider; providers let the caller defer the
    entropy-consuming stream spawn until a backend that actually batches
    trajectories is chosen (the density fallback must not perturb the
    caller's rng stream).
    """
    if rng_streams is not None and callable(rng_streams):
        return rng_streams()
    return rng_streams


def make_noisy_backend(
    name: str | None,
    noise,
    *,
    batch_size: int = 1,
    rng_streams=None,
    readout_error=None,
    clifford: bool | None = None,
    _seen: frozenset = frozenset(),
) -> SimulationBackend:
    """Build a backend carrying ``noise``, routed declaratively.

    The capability rules, in order:

    1. a **non-Pauli** model runs on the entry itself when it declares
       ``"kraus"`` support, else on its ``kraus_delegate`` (the exact
       density-matrix fallback), else is rejected — Pauli-only spellings
       (``"trajectory"``, ``"stabilizer"``) refuse rather than silently
       densify;
    2. a **Pauli** model first applies Clifford routing (``clifford_aware``
       entries resolve all-Clifford plans to the preferred Clifford-native
       backend), then runs on the entry itself when it declares ``"pauli"``
       support, else on its ``pauli_delegate`` (the batched trajectory
       engine for the plain statevector).
    """
    resolved = name or StatevectorBackend.name
    if resolved in _seen:
        raise ValueError(
            f"backend noise delegation loop through {resolved!r}"
        )
    entry = get_backend_entry(resolved)
    kwargs = dict(
        noise=noise,
        batch_size=batch_size,
        rng_streams=rng_streams,
        readout_error=readout_error,
    )
    delegate_kwargs = dict(
        batch_size=batch_size,
        rng_streams=rng_streams,
        readout_error=readout_error,
        clifford=clifford,
        _seen=_seen | {resolved},
    )
    if not noise.is_pauli:
        if "kraus" in entry.capabilities.gate_noise:
            return entry.noisy_factory(**kwargs)
        if entry.kraus_delegate is not None:
            return make_noisy_backend(
                entry.kraus_delegate, noise, **delegate_kwargs
            )
        raise ValueError(
            f"backend {resolved!r} only unravels Pauli channels; "
            "non-Pauli noise (e.g. amplitude damping) needs the "
            "density-matrix backend"
        )
    if entry.clifford_aware and clifford is True:
        return make_noisy_backend(
            clifford_backend_name(), noise, **delegate_kwargs
        )
    if "pauli" in entry.capabilities.gate_noise:
        return entry.noisy_factory(**kwargs)
    if entry.pauli_delegate is not None:
        return make_noisy_backend(entry.pauli_delegate, noise, **delegate_kwargs)
    raise ValueError(
        f"backend {resolved!r} declares no gate-noise path and no delegate"
    )


register_backend(
    StatevectorBackend.name,
    StatevectorBackend,
    BackendCapabilities(
        dense=True,
        description="dense statevector over the vectorised kernels",
    ),
    pauli_delegate="trajectory",
    kraus_delegate="density",
)
