"""Pauli-observable estimation: the `AssertObservable` subsystem.

``pauli``     — :class:`PauliString` / :class:`PauliSum` algebra with
                symplectic ``(x, z)`` mask interop.
``grouping``  — tensor-product-basis grouping of qubit-wise-commuting terms
                into shared measurement settings.
``estimation``— basis-rotation fragments, eigenvalue-product estimators and
                covariance-aware aggregation into :class:`ObservableEstimate`.
``exact``     — exact ``<P>`` on stabilizer tableaus (zero sampling shots)
                with dense fallbacks on every other backend.
"""

from .grouping import MeasurementSetting, group_terms
from .pauli import PauliString, PauliSum

# ``estimation`` and ``exact`` pull in the statistics and simulation layers,
# which in turn import the language IR — and the IR imports ``pauli`` from
# this package.  Loading them lazily keeps that cycle open: importing
# ``repro.observables`` (or ``.pauli``) stays a leaf operation, while
# attribute access resolves the heavy modules on first use.
_LAZY_EXPORTS = {
    "ObservableEstimate": "estimation",
    "TermEstimate": "estimation",
    "estimate_observable": "estimation",
    "rotation_ops": "estimation",
    "as_pauli_sum": "exact",
    "backend_expectation": "exact",
    "density_expectation": "exact",
    "exact_estimate": "exact",
    "statevector_expectation": "exact",
    "tableau_engine": "exact",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))

__all__ = [
    "PauliString",
    "PauliSum",
    "MeasurementSetting",
    "group_terms",
    "ObservableEstimate",
    "TermEstimate",
    "estimate_observable",
    "rotation_ops",
    "as_pauli_sum",
    "backend_expectation",
    "density_expectation",
    "exact_estimate",
    "statevector_expectation",
    "tableau_engine",
]
