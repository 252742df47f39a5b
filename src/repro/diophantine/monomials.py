"""Monomials over a fixed vector of unknowns.

A monomial is written ``a · u^e = a · u_1^{e_1} ··· u_n^{e_n}`` where ``a``
is a non-negative rational coefficient and ``e`` is the exponent vector.
Monomial–polynomial inequalities (Definition 4.1) restrict the left-hand
monomial to coefficient 1 and natural exponents; the *generalised* variant
(GMPIs) allows non-negative real — here rational — exponents, which is what
the fresh-unknown substitution ``u_j = u^{ε_j}`` of Theorem 4.1 produces.

Coefficients and exponents are stored in one canonical exact form: a plain
``int`` when the value is integral and a :class:`~fractions.Fraction`
otherwise.  An MPI's coefficients, exponents and witnesses are natural
numbers, so the bag-containment path evaluates, substitutes and searches on
``int`` arithmetic alone; a ``Fraction`` appears only where a value is
genuinely fractional (a GMPI exponent, a rational scale factor).  Since
``3 == Fraction(3)`` and both hash alike, the canonical form changes no
equality or hash.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from repro.exceptions import DiophantineError, DimensionMismatchError

__all__ = ["Monomial"]


def _exact(value: object) -> int | Fraction:
    """*value* in canonical exact form: an ``int`` when integral, else a ``Fraction``."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _check_exponents(exponents: Sequence[object]) -> tuple[int | Fraction, ...]:
    converted = []
    for exponent in exponents:
        value = _exact(exponent)
        if value < 0:
            raise DiophantineError(f"exponents must be non-negative, got {exponent}")
        converted.append(value)
    return tuple(converted)


def check_point(components: Iterable[object]) -> None:
    """Raise :class:`DiophantineError` if any of *components* is negative."""
    for value in components:
        if (value if type(value) is int or type(value) is Fraction else _exact(value)) < 0:
            raise DiophantineError("monomials are only evaluated on non-negative points")


def term_value(
    coefficient: int | Fraction, exponents: Sequence[int | Fraction], point: Sequence[object]
) -> int | Fraction:
    """``coefficient · point^exponents`` for canonical *coefficient* and *exponents*.

    The body of :meth:`Monomial.evaluate`, shared with
    :meth:`~repro.diophantine.polynomials.Polynomial.evaluate`, which walks
    its table without building monomials; the caller checks the dimension.
    """
    result = coefficient
    for value, exponent in zip(point, exponents):
        base = value if type(value) is int or type(value) is Fraction else _exact(value)
        if base < 0:
            raise DiophantineError("monomials are only evaluated on non-negative points")
        if type(exponent) is int:
            result *= base**exponent
        elif base == 0 or base == 1:
            # A fractional exponent is never 0, so 0^e = 0 and 1^e = 1.
            result *= base
        else:
            raise DiophantineError(
                f"cannot exactly evaluate {base}^{exponent}; use float_evaluate instead"
            )
        if result == 0:
            # Off the hot path: reject a negative component the loop skips.
            check_point(point)
            return 0
    return result


@dataclass(frozen=True)
class Monomial:
    """An immutable monomial ``coefficient · u^exponents``.

    The coefficient and each exponent are an ``int`` when integral and a
    ``Fraction`` otherwise (see the module docstring); :meth:`is_integral`
    reports whether every exponent is an integer (i.e. whether the monomial
    is admissible in a plain MPI as opposed to a GMPI).
    """

    coefficient: int | Fraction
    exponents: tuple[int | Fraction, ...]

    def __init__(self, coefficient: object, exponents: Sequence[object]) -> None:
        value = _exact(coefficient)
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

    def degree(self) -> int | Fraction:
        """Total degree: the sum of the exponents."""
        return sum(self.exponents)

    def is_integral(self) -> bool:
        """``True`` when every exponent is a (non-negative) integer."""
        return all(type(exponent) is int for exponent in self.exponents)

    def integer_exponents(self) -> tuple[int, ...]:
        """The exponents as plain integers; raises unless :meth:`is_integral`."""
        if not self.is_integral():
            raise DiophantineError(f"monomial {self} has non-integer exponents")
        return self.exponents

    def support(self) -> frozenset[int]:
        """Indices of unknowns appearing with a positive exponent."""
        return frozenset(index for index, exponent in enumerate(self.exponents) if exponent > 0)

    # ------------------------------------------------------------------ #
    # Evaluation and algebra
    # ------------------------------------------------------------------ #
    def evaluate(self, point: Sequence[object]) -> int | Fraction:
        """Value of the monomial at *point* (exact, point components rational).

        An ``int`` or ``Fraction`` component is used as it is; any other
        component is converted to a ``Fraction``.  The value is an ``int``
        whenever the coefficient and the point are integral and the
        exponents natural — always, on an MPI at a natural point.

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
        return term_value(self.coefficient, self.exponents, point)

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
        return Monomial(self.coefficient * _exact(factor), self.exponents)

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
            e * (value if type(value) is int or type(value) is Fraction else _exact(value))
            for e, value in zip(self.exponents, epsilon)
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
