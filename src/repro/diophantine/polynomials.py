"""Polynomials over a fixed vector of unknowns, as sums of monomials.

A :class:`Polynomial` is a finite sum of :class:`Monomial` objects, all over
the same unknowns.  Monomials with identical exponent vectors are merged by
summing their coefficients, which keeps the representation canonical and
makes equality structural.  The zero polynomial (empty sum) is allowed: it
arises in the bag-containment encoding when the containing query admits no
containment mapping into the grounded containee.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from repro.exceptions import DimensionMismatchError, DiophantineError
from repro.diophantine.monomials import Monomial, check_point
from repro.faults.runtime import TICK_INTERVAL, deadline_handle

__all__ = ["Polynomial"]


def _polled(monomials: tuple[Monomial, ...]) -> Iterable[Monomial]:
    """*monomials*, polling an ambient deadline every :data:`TICK_INTERVAL` of them.

    Witness assembly spends its time in per-monomial work: on a wide
    encoding (thousands of monomials) specialising the MPI for the Lemma 4.1
    search, checking the witness and building the counterexample each take
    tens of milliseconds of ``int`` arithmetic, while the search itself
    takes well under one.
    """
    tick = deadline_handle()
    if tick is None:
        return monomials
    return _ticked(monomials, tick)


def _ticked(monomials: tuple[Monomial, ...], tick: Callable[[], None]) -> Iterator[Monomial]:
    countdown = TICK_INTERVAL
    for monomial in monomials:
        countdown -= 1
        if not countdown:
            tick()
            countdown = TICK_INTERVAL
        yield monomial


class Polynomial:
    """An immutable polynomial with non-negative rational coefficients."""

    __slots__ = ("_monomials", "_dimension")

    def __init__(self, monomials: Iterable[Monomial], dimension: int | None = None) -> None:
        merged: dict[tuple[int | Fraction, ...], Monomial] = {}
        inferred_dimension = dimension
        for monomial in monomials:
            if not isinstance(monomial, Monomial):
                raise DiophantineError(f"{monomial!r} is not a Monomial")
            if inferred_dimension is None:
                inferred_dimension = monomial.dimension
            elif monomial.dimension != inferred_dimension:
                raise DimensionMismatchError(
                    f"monomial of dimension {monomial.dimension} in a polynomial of dimension {inferred_dimension}"
                )
            if monomial.coefficient == 0:
                continue
            # A monomial with a fresh exponent vector is kept as it is; only
            # a repeated vector builds a new, summed monomial.
            earlier = merged.get(monomial.exponents)
            if earlier is not None:
                monomial = Monomial(earlier.coefficient + monomial.coefficient, monomial.exponents)
            merged[monomial.exponents] = monomial
        if inferred_dimension is None:
            raise DiophantineError("the dimension of an empty polynomial must be given explicitly")
        self._dimension = inferred_dimension
        self._monomials: tuple[Monomial, ...] = tuple(
            monomial for _, monomial in sorted(merged.items(), key=lambda item: item[0])
        )

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def monomials(self) -> tuple[Monomial, ...]:
        """The merged monomials, in a deterministic order."""
        return self._monomials

    @property
    def dimension(self) -> int:
        """Number of unknowns."""
        return self._dimension

    def __len__(self) -> int:
        return len(self._monomials)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self._monomials)

    def is_zero(self) -> bool:
        """``True`` for the empty sum."""
        return not self._monomials

    def degree(self) -> int | Fraction:
        """Maximal total degree over the monomials (0 for the zero polynomial)."""
        if not self._monomials:
            return 0
        return max(monomial.degree() for monomial in self._monomials)

    def is_integral(self) -> bool:
        """``True`` when every monomial has integer exponents."""
        return all(monomial.is_integral() for monomial in self._monomials)

    def has_constant_term(self) -> bool:
        """``True`` when some monomial has all exponents equal to zero."""
        return any(all(exponent == 0 for exponent in monomial.exponents) for monomial in self._monomials)

    def coefficients(self) -> tuple[int | Fraction, ...]:
        """Coefficients of the monomials, in the canonical order."""
        return tuple(monomial.coefficient for monomial in self._monomials)

    def exponent_vectors(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """Exponent vectors of the monomials, in the canonical order."""
        return tuple(monomial.exponents for monomial in self._monomials)

    # ------------------------------------------------------------------ #
    # Evaluation and algebra
    # ------------------------------------------------------------------ #
    def evaluate(self, point: Sequence[object]) -> int | Fraction:
        """Exact value of the polynomial at *point*, polling any deadline.

        An ``int`` at a natural point, as :meth:`Monomial.evaluate` is.
        """
        if len(point) != self._dimension:
            raise DimensionMismatchError(
                f"point of size {len(point)} supplied to a polynomial of dimension {self._dimension}"
            )
        if not self._monomials:
            check_point(point)
            return 0
        return sum(monomial.evaluate(point) for monomial in _polled(self._monomials))

    def float_evaluate(self, point: Sequence[float]) -> float:
        """Floating-point value of the polynomial at *point*."""
        return sum(monomial.float_evaluate(point) for monomial in self._monomials)

    def add(self, other: "Polynomial") -> "Polynomial":
        """Sum of two polynomials over the same unknowns."""
        if other.dimension != self._dimension:
            raise DimensionMismatchError(
                f"cannot add polynomials of dimensions {self._dimension} and {other.dimension}"
            )
        return Polynomial(list(self._monomials) + list(other.monomials), self._dimension)

    def scale(self, factor: object) -> "Polynomial":
        """The polynomial with every coefficient multiplied by *factor*."""
        return Polynomial([monomial.scale(factor) for monomial in self._monomials], self._dimension)

    def substitute_power(self, epsilon: Sequence[object]) -> "Polynomial":
        """Univariate polynomial obtained by setting ``u_j = u^{ε_j}`` (Theorem 4.1).

        Polls any deadline, like :meth:`evaluate`.
        """
        return Polynomial(
            [monomial.substitute_power(epsilon) for monomial in _polled(self._monomials)], 1
        )

    # ------------------------------------------------------------------ #
    # Display / equality
    # ------------------------------------------------------------------ #
    def render(self, unknown_names: Sequence[str] | None = None) -> str:
        """Human-readable rendering, ``0`` for the zero polynomial."""
        if not self._monomials:
            return "0"
        return " + ".join(monomial.render(unknown_names) for monomial in self._monomials)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._dimension == other._dimension and self._monomials == other._monomials

    def __hash__(self) -> int:
        return hash((self._dimension, self._monomials))

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def zero(cls, dimension: int) -> "Polynomial":
        """The zero polynomial over *dimension* unknowns."""
        return cls((), dimension)

    @classmethod
    def from_terms(
        cls, terms: Iterable[tuple[object, Sequence[int]]], dimension: int | None = None
    ) -> "Polynomial":
        """Build a polynomial from ``(coefficient, exponents)`` pairs."""
        return cls(
            [Monomial(coefficient, exponents) for coefficient, exponents in terms], dimension
        )
