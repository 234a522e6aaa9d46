"""The paper's contribution: statistical assertions for quantum programs."""

from .assertions import (
    DEFAULT_SIGNIFICANCE,
    AssertionOutcome,
    ClassicalAssertion,
    EntanglementAssertion,
    ProductStateAssertion,
    SuperpositionAssertion,
)
from .checker import StatisticalAssertionChecker, build_evaluator, check_program
from .config import RunConfig
from .exceptions import AssertionViolation, InsufficientEnsembleError, QuantumAssertionError
from .report import BreakpointRecord, DebugReport, format_table
from .session import Session, session
from .statistics import (
    ChiSquareResult,
    ConvergenceResult,
    build_contingency_table,
    category_standard_errors,
    chi_square_gof,
    chi_square_survival,
    classical_gof,
    contingency_chi_square,
    contingency_coefficient,
    cramers_v,
    ensemble_convergence,
    independence_test_from_samples,
    max_category_standard_error,
    uniform_gof,
)

__all__ = [
    "DEFAULT_SIGNIFICANCE",
    "RunConfig",
    "Session",
    "session",
    "AssertionOutcome",
    "ClassicalAssertion",
    "SuperpositionAssertion",
    "EntanglementAssertion",
    "ProductStateAssertion",
    "StatisticalAssertionChecker",
    "check_program",
    "build_evaluator",
    "DebugReport",
    "BreakpointRecord",
    "format_table",
    "AssertionViolation",
    "QuantumAssertionError",
    "InsufficientEnsembleError",
    "ChiSquareResult",
    "ConvergenceResult",
    "category_standard_errors",
    "max_category_standard_error",
    "ensemble_convergence",
    "chi_square_survival",
    "chi_square_gof",
    "classical_gof",
    "uniform_gof",
    "build_contingency_table",
    "contingency_chi_square",
    "cramers_v",
    "contingency_coefficient",
    "independence_test_from_samples",
]
