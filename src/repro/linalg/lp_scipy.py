"""Linear-programming fast path for strict homogeneous feasibility.

Theorem 4.2 observes that the rational feasibility of the homogeneous strict
system ``A·ε > 0`` is decidable in polynomial time.  The exact solver of
:mod:`repro.linalg.fourier_motzkin` is the authoritative implementation; the
LP formulation below is the *fast path* used on larger random workloads and
benchmarked against it (experiment E6).

The formulation exploits homogeneity: ``A·ε > 0`` has a solution iff the LP

    maximise   δ
    subject to A·ε ≥ δ·1,  0 ≤ δ ≤ 1,  −1 ≤ ε_j ≤ 1

has optimum ``δ* > 0`` (any solution of the strict system can be scaled into
the box with a positive margin, and any box solution with positive margin
satisfies the strict system).  The same trick handles the variant with
``ε > 0`` by adding the rows of the identity.

A floating-point solver can only be trusted up to a tolerance, so the module
never *asserts* infeasibility on its own authority: callers that need an
exact answer either verify the returned witness exactly (a rational
rounding of the LP solution) or fall back to Fourier–Motzkin.

scipy (and numpy) are optional: they are imported on the first LP call, so
``import repro`` and every exact decision work without them, and an LP call
without them raises :class:`~repro.exceptions.LinearSystemError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from repro.exceptions import LinearSystemError
from repro.linalg.systems import HomogeneousStrictSystem

__all__ = ["LpFeasibility", "lp_feasibility", "lp_witness"]

#: Margins below this value are treated as "numerically zero" (infeasible).
DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class LpFeasibility:
    """Outcome of the LP fast path.

    ``margin`` is the optimum ``δ*`` (0 when the solver failed); ``witness``
    is a rational rounding of the LP point, present only when the margin is
    positive *and* the rounded point exactly satisfies the strict system.
    """

    feasible: bool
    margin: float
    witness: tuple[Fraction, ...] | None
    exact: bool

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return self.feasible


def _round_witness(
    system: HomogeneousStrictSystem, point: Sequence[float], denominator: int = 10**6
) -> tuple[Fraction, ...] | None:
    """Round an LP point to rationals and keep it only if it verifies exactly."""
    candidate = tuple(Fraction(round(float(value) * denominator), denominator) for value in point)
    if system.is_solution(candidate):
        return candidate
    return None


def lp_feasibility(
    system: HomogeneousStrictSystem,
    require_positive: bool = False,
    tolerance: float = DEFAULT_TOLERANCE,
) -> LpFeasibility:
    """Decide (numerically) whether ``A·ε > 0`` is feasible.

    The answer is *exact* (``exact=True``) only when a positive margin was
    found **and** the rounded rational witness verifies against the system;
    otherwise the caller should treat the verdict as a hint.
    """
    working = system.with_positivity() if require_positive else system
    n = working.dimension
    m = len(working)

    if m == 0:
        witness = tuple(Fraction(0) for _ in range(n))
        return LpFeasibility(True, 1.0, witness, True)

    try:
        import numpy as np
        from scipy.optimize import linprog
    except ImportError as error:
        raise LinearSystemError(
            f"the LP fast path needs scipy and numpy, which are not installed ({error})"
        ) from None

    matrix = np.array([[float(value) for value in row] for row in working.rows], dtype=float)

    # Variables: [ε_1 ... ε_n, δ];  constraints  −A·ε + δ·1 ≤ 0;  maximise δ.
    a_ub = np.hstack([-matrix, np.ones((m, 1))])
    b_ub = np.zeros(m)
    objective = np.zeros(n + 1)
    objective[-1] = -1.0
    bounds = [(-1.0, 1.0)] * n + [(0.0, 1.0)]

    outcome = linprog(objective, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not outcome.success:
        return LpFeasibility(False, 0.0, None, False)

    margin = float(outcome.x[-1])
    if margin <= tolerance:
        return LpFeasibility(False, margin, None, False)

    witness = _round_witness(working, outcome.x[:-1])
    return LpFeasibility(True, margin, witness, witness is not None)


def lp_witness(
    system: HomogeneousStrictSystem,
    require_positive: bool = False,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[Fraction, ...] | None:
    """Rational witness from the LP fast path, or ``None`` when unavailable."""
    return lp_feasibility(system, require_positive=require_positive, tolerance=tolerance).witness
