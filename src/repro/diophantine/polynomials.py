"""Polynomials over a fixed vector of unknowns, as sums of monomials.

A :class:`Polynomial` is a finite sum of monomials, all over the same
unknowns.  Its one representation is the sorted table of ``(exponents,
coefficient)`` pairs: monomials with identical exponent vectors are merged
by summing their coefficients, which keeps the representation canonical and
makes equality structural.  Evaluation, substitution, algebra and the linear
system of Theorem 4.1 read the table; :class:`Monomial` objects are derived
from it only on first use (iteration, :attr:`Polynomial.monomials`,
:meth:`Polynomial.render`) and are never pickled.  The zero polynomial
(empty sum) is allowed: it arises in the bag-containment encoding when the
containing query admits no containment mapping into the grounded containee.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import itemgetter, mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from repro.exceptions import DimensionMismatchError, DiophantineError
from repro.diophantine.monomials import (
    Monomial,
    _check_exponents,
    _exact,
    check_point,
    term_value,
)
from repro.faults.runtime import TICK_INTERVAL, deadline_handle

__all__ = ["Polynomial"]

_T = TypeVar("_T")
_Exponents = tuple[int | Fraction, ...]
_Terms = tuple[tuple[_Exponents, int | Fraction], ...]


def _polled(items: Sequence[_T]) -> Iterable[_T]:
    """*items*, polling an ambient deadline every :data:`TICK_INTERVAL` of them.

    Witness assembly spends its time in per-term work: on a wide encoding
    (thousands of terms) specialising the MPI for the Lemma 4.1 search,
    checking the witness, building the counterexample and deriving the
    monomials each take tens of milliseconds, while the search itself takes
    well under one.
    """
    tick = deadline_handle()
    if tick is None:
        return items
    return _ticked(items, tick)


def _ticked(items: Sequence[_T], tick: Callable[[], None]) -> Iterator[_T]:
    countdown = TICK_INTERVAL
    for item in items:
        countdown -= 1
        if not countdown:
            tick()
            countdown = TICK_INTERVAL
        yield item


def _merged(pairs: Iterable[tuple[_Exponents, int | Fraction]]) -> _Terms:
    """The sorted table of ``(exponents, coefficient)`` pairs, equal vectors summed."""
    merged: dict[_Exponents, int | Fraction] = {}
    for exponents, coefficient in pairs:
        earlier = merged.get(exponents)
        merged[exponents] = coefficient if earlier is None else _exact(earlier + coefficient)
    # Vectors are distinct keys, so the sort never compares coefficients.
    return tuple(sorted(merged.items()))


class Polynomial:
    """An immutable polynomial with non-negative rational coefficients.

    Stored as its sorted ``(exponents, coefficient)`` table (see the module
    docstring); the monomials are derived from it on first use, polling any
    deadline, and pickling keeps the table alone.
    """

    __slots__ = ("_terms", "_dimension", "_monomials")

    def __init__(self, monomials: Iterable[Monomial], dimension: int | None = None) -> None:
        pairs = []
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
            if monomial.coefficient != 0:
                pairs.append((monomial.exponents, monomial.coefficient))
        if inferred_dimension is None:
            raise DiophantineError("the dimension of an empty polynomial must be given explicitly")
        self.__setstate__((_merged(pairs), inferred_dimension))

    def __getstate__(self) -> tuple[_Terms, int]:
        return self._terms, self._dimension

    def __setstate__(self, state: tuple[_Terms, int]) -> None:
        self._terms, self._dimension = state
        self._monomials: tuple[Monomial, ...] | None = None

    @classmethod
    def _of(cls, terms: _Terms, dimension: int) -> "Polynomial":
        """A polynomial over an already canonical, sorted table."""
        polynomial = cls.__new__(cls)
        polynomial.__setstate__((terms, dimension))
        return polynomial

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def monomials(self) -> tuple[Monomial, ...]:
        """The merged monomials, in a deterministic order (derived on first use, polled)."""
        monomials = self._monomials
        if monomials is None:
            monomials = self._monomials = tuple(
                Monomial(coefficient, exponents) for exponents, coefficient in _polled(self._terms)
            )
        return monomials

    @property
    def dimension(self) -> int:
        """Number of unknowns."""
        return self._dimension

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.monomials)

    def is_zero(self) -> bool:
        """``True`` for the empty sum."""
        return not self._terms

    def degree(self) -> int | Fraction:
        """Maximal total degree over the monomials (0 for the zero polynomial)."""
        return max((sum(exponents) for exponents, _ in self._terms), default=0)

    def is_integral(self) -> bool:
        """``True`` when every monomial has integer exponents."""
        return {int}.issuperset(map(type, chain.from_iterable(self.exponent_vectors())))

    def has_constant_term(self) -> bool:
        """``True`` when some monomial has all exponents equal to zero."""
        return any(not any(exponents) for exponents, _ in self._terms)

    def coefficients(self) -> tuple[int | Fraction, ...]:
        """Coefficients of the monomials, in the canonical order."""
        return tuple(map(itemgetter(1), self._terms))

    def exponent_vectors(self) -> tuple[_Exponents, ...]:
        """Exponent vectors of the monomials, in the canonical order."""
        return tuple(map(itemgetter(0), self._terms))

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
        if not self._terms:
            check_point(point)
            return 0
        return sum(
            term_value(coefficient, exponents, point)
            for exponents, coefficient in _polled(self._terms)
        )

    def float_evaluate(self, point: Sequence[float]) -> float:
        """Floating-point value of the polynomial at *point*."""
        return sum(monomial.float_evaluate(point) for monomial in self.monomials)

    def add(self, other: "Polynomial") -> "Polynomial":
        """Sum of two polynomials over the same unknowns."""
        if other.dimension != self._dimension:
            raise DimensionMismatchError(
                f"cannot add polynomials of dimensions {self._dimension} and {other.dimension}"
            )
        return Polynomial._of(_merged(self._terms + other._terms), self._dimension)

    def scale(self, factor: object) -> "Polynomial":
        """The polynomial with every coefficient multiplied by *factor*."""
        return Polynomial([monomial.scale(factor) for monomial in self.monomials], self._dimension)

    def substitute_power(self, epsilon: Sequence[object]) -> "Polynomial":
        """Univariate polynomial obtained by setting ``u_j = u^{ε_j}`` (Theorem 4.1).

        Each term's exponent becomes the dot product ``e ⊺ · ε``, as in
        :meth:`Monomial.substitute_power`.  Polls any deadline, like
        :meth:`evaluate`.
        """
        if len(epsilon) != self._dimension:
            raise DimensionMismatchError(
                f"parameter vector of size {len(epsilon)} for a polynomial "
                f"of dimension {self._dimension}"
            )
        parameters = [
            value if type(value) is int or type(value) is Fraction else _exact(value)
            for value in epsilon
        ]
        return Polynomial._of(
            _merged(
                (_check_exponents((sum(map(mul, exponents, parameters)),)), coefficient)
                for exponents, coefficient in _polled(self._terms)
            ),
            1,
        )

    # ------------------------------------------------------------------ #
    # Display / equality
    # ------------------------------------------------------------------ #
    def render(self, unknown_names: Sequence[str] | None = None) -> str:
        """Human-readable rendering, ``0`` for the zero polynomial."""
        if not self._terms:
            return "0"
        return " + ".join(monomial.render(unknown_names) for monomial in self.monomials)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._dimension == other._dimension and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._dimension, self._terms))

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

    @classmethod
    def from_table(cls, table: Mapping[tuple[int, ...], int], dimension: int) -> "Polynomial":
        """``Σ count · u^vector`` over a ``vector -> count`` table, without building a monomial.

        The checks :class:`Monomial` makes one monomial at a time run once
        over the whole table: every vector has *dimension* natural ``int``
        entries and every count is a positive ``int``.  This is how the
        bag-containment encoding hands over its convolved table.
        """
        if table:
            vectors, counts = table.keys(), table.values()
            if set(map(len, vectors)) != {dimension}:
                raise DimensionMismatchError(
                    f"exponent vectors of sizes {sorted(set(map(len, vectors)))} "
                    f"in a polynomial of dimension {dimension}"
                )
            if not {int}.issuperset(map(type, chain.from_iterable(vectors))) or (
                min(chain.from_iterable(vectors), default=0) < 0
            ):
                raise DiophantineError("exponents must be natural ints")
            if not {int}.issuperset(map(type, counts)) or min(counts) <= 0:
                raise DiophantineError("coefficients of a table must be positive ints")
        return cls._of(tuple(sorted(table.items())), dimension)
