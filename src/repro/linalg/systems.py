"""Homogeneous strict linear inequality systems ``A·ε > 0``.

Theorem 4.1 reduces the solvability of an n-MPI to the existence of a
*natural* solution of the homogeneous system ``{(e − e_i)ᵀ·ε > 0}``.  A
natural (non-negative integer) solution exists iff the system together with
the component-wise strict positivity constraints ``ε_j > 0`` is feasible
over the rationals:

* if a natural solution ``d ≥ 0`` exists then, because all constraints are
  strict and finitely many, the perturbed vector ``d + δ·1`` still satisfies
  them for a small enough rational ``δ > 0`` and is component-wise positive;
* conversely a positive rational solution scales (lcm of denominators) to a
  positive — hence natural — integer solution.

:class:`HomogeneousStrictSystem` therefore stores only strict rows, and the
solvers in :mod:`repro.linalg.fourier_motzkin` and
:mod:`repro.linalg.lp_scipy` decide feasibility either of the rows alone or
of the rows plus positivity, as requested.

Rows are normalised once, when a system is built: each integer row is
divided by the gcd of its entries.  Adding the positivity rows
(:meth:`HomogeneousStrictSystem.with_positivity`) does not normalise again,
and the top level of the Fourier–Motzkin elimination trusts the rows it is
given.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from repro.exceptions import DimensionMismatchError, LinearSystemError
from repro.linalg.rationals import as_fraction_vector, dot

__all__ = ["HomogeneousStrictSystem"]


class HomogeneousStrictSystem:
    """An immutable system of strict homogeneous inequalities ``row · ε > 0``.

    Rows whose entries are all ``int`` (the bag-containment path: Theorem
    4.1's rows ``e − e_i`` are differences of naturals) are stored as given
    and gcd-normalised in integer arithmetic; :attr:`rows` converts them to
    fractions on access.  Any other input (fractions, ``bool``, a mix) is
    converted to fractions at construction.  Both kinds compare
    and hash alike, because an ``int`` equals and hashes like the equal
    :class:`Fraction`.

    The constructor is the one place that normalises rows:
    :meth:`with_positivity` appends unit rows to rows that are already
    primitive, and Fourier–Motzkin takes :meth:`integer_rows` as they are.
    """

    __slots__ = ("_rows", "_dimension", "_integer_rows")

    def __init__(self, rows: Iterable[Sequence[object]], dimension: int | None = None) -> None:
        entries: list[tuple[object, ...]] = [tuple(row) for row in rows]
        integral = {int}.issuperset(map(type, chain.from_iterable(entries)))
        if not integral:
            entries = [as_fraction_vector(row) for row in entries]
        if dimension is None:
            if not entries:
                raise LinearSystemError(
                    "an empty system needs an explicit dimension"
                )
            dimension = len(entries[0])
        if dimension < 0:
            raise LinearSystemError(f"dimension must be non-negative, got {dimension}")
        for row in entries:
            if len(row) != dimension:
                raise DimensionMismatchError(
                    f"row {as_fraction_vector(row)} has {len(row)} components, expected {dimension}"
                )
        # Fractions, or the caller's ints when every entry is one.
        self._rows: tuple[tuple[object, ...], ...] = tuple(entries)
        self._dimension = dimension
        # gcd-normalised here, and only here: every integer row is primitive,
        # so the integer fast path of is_solution multiplies the smallest
        # possible coefficients no matter how non-reduced the input was, and
        # the solvers take the rows as they are.
        scaled: list[tuple[int, ...]] = []
        for row in self._rows:
            if integral:
                integers = row
            else:
                multiplier = lcm(*(value.denominator for value in row)) if row else 1
                integers = tuple(int(value * multiplier) for value in row)
            divisor = gcd(*integers)
            if divisor > 1:
                integers = tuple(value // divisor for value in integers)
            scaled.append(integers)
        self._integer_rows: tuple[tuple[int, ...], ...] = tuple(scaled)

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows of the system, as tuples of fractions (built per access from ``int`` rows)."""
        return tuple(as_fraction_vector(row) for row in self._rows)

    @property
    def dimension(self) -> int:
        """Number of unknowns ``ε_j``."""
        return self._dimension

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple[Fraction, ...]]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomogeneousStrictSystem):
            return NotImplemented
        return self._rows == other._rows and self._dimension == other._dimension

    def __hash__(self) -> int:
        return hash((self._rows, self._dimension))

    def __repr__(self) -> str:
        return f"HomogeneousStrictSystem({len(self._rows)} rows, dimension {self._dimension})"

    # ------------------------------------------------------------------ #
    # Derived systems
    # ------------------------------------------------------------------ #
    def with_positivity(self) -> "HomogeneousStrictSystem":
        """The system augmented with the rows ``ε_j > 0`` for every unknown.

        The unit rows are appended to both row tuples as they are: the
        existing integer rows are already primitive and so is every unit
        row, so nothing is normalised again.
        """
        dimension = self._dimension
        units = tuple(
            tuple(int(column == j) for column in range(dimension)) for j in range(dimension)
        )
        extended = HomogeneousStrictSystem.__new__(HomogeneousStrictSystem)
        extended._rows = self._rows + units
        extended._dimension = dimension
        extended._integer_rows = self._integer_rows + units
        return extended

    def restricted_to(self, row_indices: Iterable[int]) -> "HomogeneousStrictSystem":
        """The sub-system containing only the selected rows."""
        wanted = sorted(set(row_indices))
        return HomogeneousStrictSystem([self._rows[i] for i in wanted], self._dimension)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def slack(self, vector: Sequence[object]) -> tuple[Fraction, ...]:
        """The values ``row · vector`` for every row."""
        return tuple(dot(row, vector) for row in self._rows)

    def integer_rows(self) -> tuple[tuple[int, ...], ...]:
        """Each row as a primitive integer vector (computed at construction).

        Every row is scaled by the (positive) lcm of its denominators and
        divided by the gcd of the results.  Scaling a row by a positive
        rational preserves the sign of its dot product with any vector, so
        these rows decide ``row · ε > 0`` with the smallest possible pure
        machine-integer arithmetic — the hot path of the bounded-guess
        vector enumeration and of the exact Fourier–Motzkin core — even
        when the system was built from non-reduced rational input.
        """
        return self._integer_rows

    def is_solution(self, vector: Sequence[object]) -> bool:
        """``True`` when every row evaluates to a strictly positive value."""
        if len(vector) != self._dimension:
            raise DimensionMismatchError(
                f"vector of size {len(vector)} supplied to a system of dimension {self._dimension}"
            )
        if not all(type(component) is int for component in vector):
            vector = as_fraction_vector(vector)
        for row in self._integer_rows:
            total = 0
            for coefficient, component in zip(row, vector):
                if coefficient:
                    total += coefficient * component
            if total <= 0:
                return False
        return True

    def violated_rows(self, vector: Sequence[object]) -> list[int]:
        """Indices of rows with non-positive value under *vector*."""
        return [index for index, value in enumerate(self.slack(vector)) if value <= 0]

    def max_coefficient_sum(self) -> Fraction:
        """``max_i Σ_j a_{i,j}`` — the quantity φ of Lemma 5.1 (with zero constants)."""
        if not self._rows:
            return Fraction(0)
        return max(sum(row, Fraction(0)) for row in self._rows)
