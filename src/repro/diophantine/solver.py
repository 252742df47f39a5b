"""Deciding monomial–polynomial inequalities (Theorems 4.1 and 4.2).

The decision pipeline follows the paper exactly:

1. the n-MPI ``P(u) < M(u)`` is translated into the homogeneous strict
   linear system ``{(e − e_i)ᵀ·ε > 0}``;
2. the system (together with positivity of ``ε`` — see
   :mod:`repro.linalg.systems` for why that is equivalent to asking for a
   natural solution) is decided exactly by Fourier–Motzkin elimination, or
   numerically by the scipy LP fast path;
3. when feasible, the rational solution is scaled to a natural vector ``d``,
   a base ``ξ⋆`` satisfying the induced univariate inequality is found by
   the explicit argument of Lemma 4.1, and the Diophantine witness
   ``ξ_j = ξ⋆^{d_j}`` of the original MPI is assembled and re-verified.

Every positive answer therefore carries a concrete, exactly verified
Diophantine solution of the MPI.

One generalisation beyond the paper: Theorem 4.1 characterises solutions
with *positive* components, which is all the bag-containment encodings ever
need because their monomial mentions every unknown with exponent ≥ 1
(Proposition 4.1 then forces positivity).  A *general* MPI, however, may
only be solvable by zeroing unknowns that do not occur in the monomial —
``u2 < 1`` is solved by ``u2 = 0`` alone.  The solver therefore first sets
every unknown outside the monomial's support to zero (this can only shrink
the polynomial and never changes the monomial), drops the polynomial
monomials that vanish, and runs the paper's reduction on the restricted
inequality, whose monomial now has all-positive exponents.  This makes the
module complete for arbitrary MPIs while remaining a conservative extension
of the paper's procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from repro.diophantine.inequalities import GeneralizedMPI, MonomialPolynomialInequality
from repro.diophantine.monomials import Monomial
from repro.diophantine.polynomials import Polynomial
from repro.exceptions import DiophantineError, LinearSystemError
from repro.linalg.fourier_motzkin import solve_strict_system
from repro.linalg.lp_scipy import lp_feasibility
from repro.linalg.rationals import scale_to_natural
from repro.linalg.systems import HomogeneousStrictSystem

__all__ = [
    "MpiDecision",
    "decide_mpi",
    "decide_mpi_via_lp",
    "solve_univariate_gmpi",
    "smallest_univariate_solution",
    "witness_from_linear_solution",
]


@dataclass(frozen=True)
class MpiDecision:
    """Outcome of an MPI solvability decision.

    Attributes
    ----------
    solvable:
        Whether the MPI admits a Diophantine (natural) solution.
    inequality:
        The decided MPI.
    linear_system:
        The associated homogeneous strict system of Theorem 4.1.
    linear_solution:
        A natural solution ``d`` of the linear system (``None`` when unsolvable).
    witness:
        A natural solution ``ξ`` of the MPI itself (``None`` when unsolvable).
    method:
        Which feasibility engine answered: ``"fourier-motzkin"``, ``"lp"``,
        ``"trivial"``, or ``"lp-fallback"`` (the LP verdict accepted after
        Fourier–Motzkin exceeded its elimination row cap).
    """

    solvable: bool
    inequality: MonomialPolynomialInequality
    linear_system: HomogeneousStrictSystem
    linear_solution: tuple[int, ...] | None
    witness: tuple[int, ...] | None
    method: str

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return self.solvable


def solve_univariate_gmpi(gmpi: GeneralizedMPI) -> bool:
    """Lemma 4.1: a 1-GMPI is solvable iff ``deg(P) < deg(M)``.

    The zero polynomial has degree 0 by convention but is dominated by any
    monomial of positive degree and equals 0 < 1 at ``u = 1``, so it is
    treated as always solvable.
    """
    if not gmpi.is_univariate():
        raise DiophantineError("the degree criterion applies to univariate GMPIs only")
    if gmpi.polynomial.is_zero():
        return True
    return gmpi.polynomial.degree() < gmpi.monomial.degree()


def smallest_univariate_solution(gmpi: GeneralizedMPI, search_limit: int = 10**9) -> int:
    """The smallest natural solution of a solvable univariate MPI/GMPI with integer exponents.

    The existence argument of Lemma 4.1 only needs the asymptotic dominance
    of the monomial; here the actual minimum is found by doubling up to a
    point that satisfies the inequality and then binary-searching down.
    Raises :class:`DiophantineError` when the inequality is unsolvable.
    """
    if not solve_univariate_gmpi(gmpi):
        raise DiophantineError(f"the univariate inequality {gmpi} has no Diophantine solution")
    if not (gmpi.polynomial.is_integral() and gmpi.monomial.is_integral()):
        raise DiophantineError("exact search requires integer exponents")

    def satisfied(value: int) -> bool:
        point = (Fraction(value),)
        return gmpi.polynomial.evaluate(point) < gmpi.monomial.evaluate(point)

    if satisfied(1):
        return 1
    upper = 2
    while not satisfied(upper):
        upper *= 2
        if upper > search_limit:
            raise DiophantineError(
                f"no solution of {gmpi} found below {search_limit}; "
                "the inequality is solvable but its minimum solution is out of range"
            )
    low, high = upper // 2, upper
    while low + 1 < high:
        middle = (low + high) // 2
        if satisfied(middle):
            high = middle
        else:
            low = middle
    return high


def witness_from_linear_solution(
    inequality: MonomialPolynomialInequality, linear_solution: Sequence[int]
) -> tuple[int, ...]:
    """Build a Diophantine solution ``ξ`` of the MPI from a natural solution ``d``.

    Following the "if" direction of Theorem 4.1: substitute ``u_j = u^{d_j}``
    to obtain a univariate MPI whose degrees are separated, find a base
    ``ξ⋆`` satisfying it (Lemma 4.1), and return ``ξ_j = ξ⋆^{d_j}``.  The
    result is verified exactly before being returned.
    """
    d = tuple(int(component) for component in linear_solution)
    if len(d) != inequality.dimension:
        raise DiophantineError(
            f"linear solution of size {len(d)} for an MPI of dimension {inequality.dimension}"
        )
    if any(component < 0 for component in d):
        raise DiophantineError(f"linear solutions must be natural vectors, got {d}")

    univariate = inequality.specialize(d)
    base = smallest_univariate_solution(univariate)
    witness = tuple(base**component for component in d)
    if not inequality.is_solution(witness):
        raise DiophantineError(
            f"internal error: constructed witness {witness} does not solve {inequality}"
        )
    return witness


def _restrict_to_monomial_support(
    inequality: MonomialPolynomialInequality,
) -> tuple[tuple[int, ...], MonomialPolynomialInequality | None]:
    """Zero out the unknowns missing from the monomial and project the MPI.

    Returns ``(support, restricted)`` where *support* lists the unknown
    indices that occur in the monomial (in increasing order) and *restricted*
    is the MPI over just those unknowns — or ``None`` when the support is
    empty (the monomial is the constant 1), in which case the original MPI
    is solvable iff the polynomial's constant coefficient sum is below 1
    (witnessed by the all-zero vector).
    """
    support = tuple(sorted(inequality.monomial.support()))
    if len(support) == inequality.dimension:
        return support, inequality
    if not support:
        return support, None

    projected_monomial = Monomial(
        1, tuple(inequality.monomial.exponents[index] for index in support)
    )
    surviving = [
        Monomial(
            poly_monomial.coefficient,
            tuple(poly_monomial.exponents[index] for index in support),
        )
        for poly_monomial in inequality.polynomial
        if poly_monomial.support() <= set(support)
    ]
    projected_polynomial = Polynomial(surviving, dimension=len(support))
    return support, MonomialPolynomialInequality(projected_polynomial, projected_monomial)


def _expand_witness(
    dimension: int, support: tuple[int, ...], restricted_witness: Sequence[int]
) -> tuple[int, ...]:
    """Re-insert zeros for the unknowns that were projected away."""
    witness = [0] * dimension
    for index, value in zip(support, restricted_witness):
        witness[index] = int(value)
    return tuple(witness)


def _constant_coefficient_sum(inequality: MonomialPolynomialInequality) -> Fraction:
    """Sum of the coefficients of the polynomial's constant monomials."""
    return sum(
        (
            monomial.coefficient
            for monomial in inequality.polynomial
            if all(exponent == 0 for exponent in monomial.exponents)
        ),
        Fraction(0),
    )


def _decision_from_linear(
    inequality: MonomialPolynomialInequality,
    system: HomogeneousStrictSystem,
    support: tuple[int, ...],
    restricted: MonomialPolynomialInequality,
    restricted_system: HomogeneousStrictSystem,
    rational_witness: tuple[Fraction, ...] | None,
    method: str,
) -> MpiDecision:
    if rational_witness is None:
        return MpiDecision(False, inequality, system, None, None, method)
    d = scale_to_natural(rational_witness)
    if not restricted_system.is_solution(d):  # pragma: no cover - sanity check
        raise DiophantineError(f"scaled linear solution {d} does not satisfy the system")
    restricted_witness = witness_from_linear_solution(restricted, d)
    witness = _expand_witness(inequality.dimension, support, restricted_witness)
    if not inequality.is_solution(witness):  # pragma: no cover - sanity check
        raise DiophantineError(f"expanded witness {witness} does not solve {inequality}")
    linear_solution = _expand_witness(inequality.dimension, support, d)
    return MpiDecision(True, inequality, system, linear_solution, witness, method)


def _decide_with(
    inequality: MonomialPolynomialInequality, method: str, fall_back_to_exact: bool = True
) -> MpiDecision:
    """Shared driver for the exact and LP-first decision paths."""
    system = inequality.to_linear_system()

    support, restricted = _restrict_to_monomial_support(inequality)
    if restricted is None:
        # The monomial is the constant 1: solvable iff the constant part of
        # the polynomial stays below 1, witnessed by the all-zero vector.
        if _constant_coefficient_sum(inequality) < 1:
            witness = (0,) * inequality.dimension
            return MpiDecision(True, inequality, system, witness, witness, "trivial")
        return MpiDecision(False, inequality, system, None, None, "trivial")

    if restricted.polynomial.is_zero():
        # 0 < M is solved by ones on the monomial's support (zeros elsewhere).
        witness = _expand_witness(inequality.dimension, support, (1,) * len(support))
        linear_solution = (0,) * inequality.dimension
        return MpiDecision(True, inequality, system, linear_solution, witness, "trivial")

    # Built once per decision: the support covers every unknown in the
    # bag-containment encodings, so the restricted MPI is the MPI itself.
    restricted_system = system if restricted is inequality else restricted.to_linear_system()
    if method == "lp":
        outcome = lp_feasibility(restricted_system, require_positive=True)
        if outcome.feasible and outcome.witness is not None:
            return _decision_from_linear(
                inequality, system, support, restricted, restricted_system, outcome.witness, "lp"
            )
        if not fall_back_to_exact:
            return MpiDecision(outcome.feasible, inequality, system, None, None, "lp")

    try:
        exact = solve_strict_system(restricted_system, require_positive=True)
    except LinearSystemError:
        # Fourier–Motzkin blew its row cap mid-elimination.  Rather than
        # surfacing an error for a decidable instance, fall back to the LP
        # formulation, which is insensitive to elimination blow-up: a
        # feasible outcome carries an exactly-verified rational witness (so
        # the positive answer is certified as usual), while an infeasible
        # outcome is the solver's tolerance-based verdict — strictly more
        # information than the error, and tagged ``method="lp-fallback"``
        # so consumers can tell it from an exact elimination.
        outcome = lp_feasibility(restricted_system, require_positive=True)
        if outcome.feasible and outcome.witness is not None:
            return _decision_from_linear(
                inequality,
                system,
                support,
                restricted,
                restricted_system,
                outcome.witness,
                "lp-fallback",
            )
        if not outcome.feasible:
            return MpiDecision(False, inequality, system, None, None, "lp-fallback")
        raise  # feasible but unverifiable witness: no trustworthy answer
    return _decision_from_linear(
        inequality,
        system,
        support,
        restricted,
        restricted_system,
        exact.witness if exact.feasible else None,
        "fourier-motzkin",
    )


def decide_mpi(inequality: MonomialPolynomialInequality) -> MpiDecision:
    """Decide an MPI exactly (Theorem 4.2), producing a verified witness when solvable."""
    return _decide_with(inequality, method="exact")


def decide_mpi_via_lp(
    inequality: MonomialPolynomialInequality, fall_back_to_exact: bool = True
) -> MpiDecision:
    """Decide an MPI through the scipy LP fast path.

    A positive LP verdict is only accepted when its rounded rational witness
    verifies exactly; otherwise (and for negative verdicts, which a
    floating-point solver cannot certify) the decision falls back to the
    exact solver unless *fall_back_to_exact* is disabled, in which case the
    LP verdict is returned as-is with ``method="lp"``.
    """
    return _decide_with(inequality, method="lp", fall_back_to_exact=fall_back_to_exact)
