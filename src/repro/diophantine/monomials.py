"""Monomials over a fixed vector of unknowns.

A monomial is written ``a · u^e = a · u_1^{e_1} ··· u_n^{e_n}`` where ``a``
is a non-negative rational coefficient and ``e`` is the exponent vector.
Monomial–polynomial inequalities (Definition 4.1) restrict the left-hand
monomial to coefficient 1 and natural exponents; the *generalised* variant
(GMPIs) allows non-negative real — here rational — exponents, which is what
the fresh-unknown substitution ``u_j = u^{ε_j}`` of Theorem 4.1 produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from repro.exceptions import DiophantineError, DimensionMismatchError

__all__ = ["Monomial"]


def _check_exponents(exponents: Sequence[object]) -> tuple[Fraction, ...]:
    converted = []
    for exponent in exponents:
        value = Fraction(exponent)
        # Natural exponents (the encoding's) are sign-checked as plain ints.
        if (exponent < 0) if type(exponent) is int else (value < 0):
            raise DiophantineError(f"exponents must be non-negative, got {exponent}")
        converted.append(value)
    return tuple(converted)


@dataclass(frozen=True)
class Monomial:
    """An immutable monomial ``coefficient · u^exponents``.

    ``exponents`` are stored as exact fractions; :meth:`is_integral` reports
    whether they are all integers (i.e. whether the monomial is admissible
    in a plain MPI as opposed to a GMPI).
    """

    coefficient: Fraction
    exponents: tuple[Fraction, ...]

    def __init__(self, coefficient: object, exponents: Sequence[object]) -> None:
        value = Fraction(coefficient)
        if value < 0:
            raise DiophantineError(f"coefficients must be non-negative, got {coefficient}")
        object.__setattr__(self, "coefficient", value)
        object.__setattr__(self, "exponents", _check_exponents(exponents))

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        """Number of unknowns the monomial ranges over."""
        return len(self.exponents)

    def degree(self) -> Fraction:
        """Total degree: the sum of the exponents."""
        return sum(self.exponents, Fraction(0))

    def is_integral(self) -> bool:
        """``True`` when every exponent is a (non-negative) integer."""
        return all(exponent.denominator == 1 for exponent in self.exponents)

    def integer_exponents(self) -> tuple[int, ...]:
        """The exponents as plain integers; raises unless :meth:`is_integral`."""
        if not self.is_integral():
            raise DiophantineError(f"monomial {self} has non-integer exponents")
        return tuple(int(exponent) for exponent in self.exponents)

    def support(self) -> frozenset[int]:
        """Indices of unknowns appearing with a positive exponent."""
        return frozenset(index for index, exponent in enumerate(self.exponents) if exponent > 0)

    # ------------------------------------------------------------------ #
    # Evaluation and algebra
    # ------------------------------------------------------------------ #
    def evaluate(self, point: Sequence[object]) -> Fraction:
        """Value of the monomial at *point* (exact, point components rational).

        Non-integer exponents are only supported when the corresponding
        point component is 0 or 1 (the only cases needed by the library,
        which evaluates GMPIs on integer grids in tests); other combinations
        raise :class:`DiophantineError` rather than silently losing
        exactness.
        """
        if len(point) != self.dimension:
            raise DimensionMismatchError(
                f"point of size {len(point)} supplied to a monomial of dimension {self.dimension}"
            )
        result = self.coefficient
        for value, exponent in zip(point, self.exponents):
            base = Fraction(value)
            if base < 0:
                raise DiophantineError("monomials are only evaluated on non-negative points")
            if exponent.denominator == 1:
                result *= base ** int(exponent)
            elif base in (0, 1):
                result *= base if exponent != 0 else Fraction(1)
            else:
                raise DiophantineError(
                    f"cannot exactly evaluate {base}^{exponent}; use float_evaluate instead"
                )
            if result == 0:
                return Fraction(0)
        return result

    def float_evaluate(self, point: Sequence[float]) -> float:
        """Floating-point value of the monomial at *point* (for plots/benches)."""
        if len(point) != self.dimension:
            raise DimensionMismatchError(
                f"point of size {len(point)} supplied to a monomial of dimension {self.dimension}"
            )
        result = float(self.coefficient)
        for value, exponent in zip(point, self.exponents):
            result *= float(value) ** float(exponent)
        return result

    def scale(self, factor: object) -> "Monomial":
        """The monomial with its coefficient multiplied by *factor*."""
        return Monomial(self.coefficient * Fraction(factor), self.exponents)

    def multiply(self, other: "Monomial") -> "Monomial":
        """Product of two monomials over the same unknowns."""
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"cannot multiply monomials of dimensions {self.dimension} and {other.dimension}"
            )
        return Monomial(
            self.coefficient * other.coefficient,
            tuple(a + b for a, b in zip(self.exponents, other.exponents)),
        )

    def substitute_power(self, epsilon: Sequence[object]) -> "Monomial":
        """The 1-dimensional monomial obtained by setting ``u_j = u^{ε_j}``.

        This is the substitution at the heart of Theorem 4.1: the exponent of
        the resulting univariate monomial is the dot product ``e ⊺ · ε``.
        """
        if len(epsilon) != self.dimension:
            raise DimensionMismatchError(
                f"parameter vector of size {len(epsilon)} for a monomial of dimension {self.dimension}"
            )
        exponent = sum(
            (e * Fraction(value) for e, value in zip(self.exponents, epsilon)), Fraction(0)
        )
        return Monomial(self.coefficient, (exponent,))

    # ------------------------------------------------------------------ #
    # Display
    # ------------------------------------------------------------------ #
    def render(self, unknown_names: Sequence[str] | None = None) -> str:
        """Human-readable form, e.g. ``u1^2·u3`` or ``3·u1^2``."""
        names = unknown_names or [f"u{i + 1}" for i in range(self.dimension)]
        pieces = []
        for name, exponent in zip(names, self.exponents):
            if exponent == 0:
                continue
            if exponent == 1:
                pieces.append(name)
            else:
                pieces.append(f"{name}^{exponent}")
        body = "·".join(pieces) if pieces else "1"
        if self.coefficient == 1:
            return body
        return f"{self.coefficient}·{body}"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Monomial({self.coefficient}, {tuple(str(e) for e in self.exponents)})"

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def unit(cls, dimension: int) -> "Monomial":
        """The constant monomial 1 over *dimension* unknowns."""
        return cls(1, (0,) * dimension)

    @classmethod
    def from_exponents(cls, exponents: Sequence[int], coefficient: object = 1) -> "Monomial":
        """Build ``coefficient · u^exponents``."""
        return cls(coefficient, exponents)
