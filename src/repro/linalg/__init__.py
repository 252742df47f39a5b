"""Exact and LP-based solvers for homogeneous strict linear inequality systems."""

from repro.linalg.fourier_motzkin import ROW_CAP, FeasibilityResult, solve_strict_system
from repro.linalg.lp_scipy import LpFeasibility, lp_feasibility
from repro.linalg.rationals import (
    as_fraction_vector,
    clear_denominators,
    dot,
    is_zero_vector,
    normalize_integer_vector,
    scale_to_natural,
)
from repro.linalg.systems import HomogeneousStrictSystem

__all__ = [
    "ROW_CAP",
    "FeasibilityResult",
    "HomogeneousStrictSystem",
    "LpFeasibility",
    "as_fraction_vector",
    "clear_denominators",
    "dot",
    "is_zero_vector",
    "lp_feasibility",
    "normalize_integer_vector",
    "scale_to_natural",
    "solve_strict_system",
]
