"""Memory footprint and update age of the memoryless Read-Copy-Update model."""

from .core import (
    ConvergenceError,
    DerivedParams,
    DomainError,
    ModelParams,
    RandomSource,
    b_k,
    validate,
)
from .analytics import (
    FootprintReport,
    a_w,
    avg_age,
    en_bound_jensen,
    en_bound_simple,
    en_exact,
    lemma1_epsilon,
    p_ek_given_w,
    p_ek_quadrature,
    p_ek_series,
)
from .simulator import (
    ConfigError,
    SimConfig,
    SimStats,
    simulate,
)

__all__ = [
    "ConfigError",
    "ConvergenceError",
    "DerivedParams",
    "DomainError",
    "FootprintReport",
    "ModelParams",
    "RandomSource",
    "SimConfig",
    "SimStats",
    "a_w",
    "avg_age",
    "b_k",
    "en_bound_jensen",
    "en_bound_simple",
    "en_exact",
    "lemma1_epsilon",
    "p_ek_given_w",
    "p_ek_quadrature",
    "p_ek_series",
    "simulate",
    "validate",
]

__version__ = "0.1.0"
