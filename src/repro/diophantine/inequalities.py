"""Monomial–polynomial inequalities (Definition 4.1).

An *n-MPI* is the expression ``P(u) < M(u)`` where ``M(u) = u^e`` is a
monomial with coefficient 1 and natural exponents and ``P(u) = Σ a_i·u^{e_i}``
is a polynomial with non-negative coefficients and natural exponents, both
over the same ``n`` unknowns.  A Diophantine solution is a natural vector
``ξ`` with ``P(ξ) < M(ξ)``.

The *generalised* variant (GMPI) allows non-negative rational exponents; it
only ever appears in dimension 1 inside the proof machinery (the degree
criterion of Lemma 4.1), and is exposed here for completeness and for the
property-based tests.

Note the orientation: the paper writes the inequality as ``P(u) < M(u)``,
i.e. a solution is a point where the **monomial side wins**.  In the
bag-containment encoding the containment ``q1 ⊑b q2`` holds iff the MPI
``P < M`` associated with the most-general probe tuple has **no** solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from repro.diophantine.monomials import Monomial
from repro.diophantine.polynomials import Polynomial
from repro.exceptions import DimensionMismatchError, DiophantineError
from repro.linalg.systems import HomogeneousStrictSystem

__all__ = ["MonomialPolynomialInequality", "GeneralizedMPI"]


@dataclass(frozen=True)
class MonomialPolynomialInequality:
    """An n-MPI ``polynomial < monomial`` with natural exponents."""

    polynomial: Polynomial
    monomial: Monomial

    def __post_init__(self) -> None:
        if self.monomial.dimension != self.polynomial.dimension:
            raise DimensionMismatchError(
                f"monomial dimension {self.monomial.dimension} differs from polynomial "
                f"dimension {self.polynomial.dimension}"
            )
        if self.monomial.coefficient != 1:
            raise DiophantineError(
                f"the monomial side of an MPI must have coefficient 1, got {self.monomial.coefficient}"
            )
        if not self.monomial.is_integral() or not self.polynomial.is_integral():
            raise DiophantineError("an MPI requires integer exponents; use GeneralizedMPI otherwise")

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        """Number of unknowns."""
        return self.monomial.dimension

    @property
    def num_monomials(self) -> int:
        """Number of monomials on the polynomial side (the ``m`` of Definition 4.1)."""
        return len(self.polynomial)

    # ------------------------------------------------------------------ #
    # Solutions
    # ------------------------------------------------------------------ #
    def is_solution(self, point: Sequence[int]) -> bool:
        """``True`` when *point* is a natural vector with ``P(point) < M(point)``."""
        values = tuple(point)
        if len(values) != self.dimension:
            raise DimensionMismatchError(
                f"point of size {len(values)} for an MPI of dimension {self.dimension}"
            )
        if any((not isinstance(v, int)) or isinstance(v, bool) or v < 0 for v in values):
            return False
        return self.polynomial.evaluate(values) < self.monomial.evaluate(values)

    def gap(self, point: Sequence[int]) -> Fraction:
        """``M(point) − P(point)``: positive exactly on solutions."""
        return self.monomial.evaluate(point) - self.polynomial.evaluate(point)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def to_linear_system(self) -> HomogeneousStrictSystem:
        """The homogeneous strict system ``{(e − e_i)ᵀ·ε > 0}`` of Theorem 4.1.

        The MPI admits a Diophantine solution iff this system admits a
        natural solution (equivalently, iff it is feasible together with the
        component-wise positivity of ``ε`` — see
        :mod:`repro.linalg.systems`).  For the zero polynomial the system is
        empty and trivially feasible, matching the fact that ``0 < M`` is
        solved by the all-ones vector.  The rows are plain ``int`` tuples
        (an MPI's exponents are natural numbers), so the system takes its
        integer path and never builds a :class:`~fractions.Fraction`.
        """
        monomial_exponents = self.monomial.integer_exponents()
        rows = [
            tuple(e - ei for e, ei in zip(monomial_exponents, poly_monomial.integer_exponents()))
            for poly_monomial in self.polynomial
        ]
        return HomogeneousStrictSystem(rows, self.dimension)

    def specialize(self, epsilon: Sequence[object]) -> "GeneralizedMPI":
        """The univariate GMPI obtained by substituting ``u_j = u^{ε_j}``.

        This is the parametric 1-MPI of the worked example in Section 4: the
        original MPI has a solution iff the substituted inequality has one
        for *some* non-negative parameter vector ``ε``.
        """
        return GeneralizedMPI(
            self.polynomial.substitute_power(epsilon),
            self.monomial.substitute_power(epsilon),
        )

    # ------------------------------------------------------------------ #
    # Display
    # ------------------------------------------------------------------ #
    def render(self, unknown_names: Sequence[str] | None = None) -> str:
        """Render the inequality as ``P < M``."""
        return f"{self.polynomial.render(unknown_names)} < {self.monomial.render(unknown_names)}"

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class GeneralizedMPI:
    """A GMPI: like an MPI, but exponents may be non-negative rationals."""

    polynomial: Polynomial
    monomial: Monomial

    def __post_init__(self) -> None:
        if self.monomial.dimension != self.polynomial.dimension:
            raise DimensionMismatchError(
                f"monomial dimension {self.monomial.dimension} differs from polynomial "
                f"dimension {self.polynomial.dimension}"
            )
        if self.monomial.coefficient != 1:
            raise DiophantineError(
                f"the monomial side of a GMPI must have coefficient 1, got {self.monomial.coefficient}"
            )

    @property
    def dimension(self) -> int:
        """Number of unknowns."""
        return self.monomial.dimension

    def is_univariate(self) -> bool:
        """``True`` when the GMPI has a single unknown (the case of Lemma 4.1)."""
        return self.dimension == 1

    def degree_gap(self) -> Fraction:
        """``deg(M) − deg(P)``; for a univariate GMPI it is positive iff solvable."""
        return self.monomial.degree() - self.polynomial.degree()

    def is_solution_float(self, point: Sequence[float], tolerance: float = 1e-12) -> bool:
        """Numerical check ``P(point) < M(point)`` (used where exponents are fractional)."""
        return (
            self.polynomial.float_evaluate(point)
            < self.monomial.float_evaluate(point) - tolerance
        )

    def render(self, unknown_names: Sequence[str] | None = None) -> str:
        """Render the inequality as ``P < M``."""
        return f"{self.polynomial.render(unknown_names)} < {self.monomial.render(unknown_names)}"

    def __str__(self) -> str:
        return self.render()
