"""Small exact-arithmetic helpers used by the linear and Diophantine layers.

Every answer is exact.  The bag-containment path is integer-native except
inside the linear solver: a monomial stores integral coefficients and
exponents as ``int`` (:mod:`repro.diophantine.monomials`), Theorem 4.1's
rows ``e − e_i`` are ``int`` rows, which
:class:`~repro.linalg.systems.HomogeneousStrictSystem` keeps without
building a :class:`fractions.Fraction`, and the Lemma 4.1 search, the
witness ``ξ_j = ξ⋆^{d_j}`` and its checks evaluate at ``int`` points.
Fractions remain where values are genuinely rational: fractional GMPI
exponents, the Fourier–Motzkin witness and its back-substitution.  These
helpers convert the rational witness to the natural vector ``d`` (clearing
denominators with the lcm, as in the proof of Theorem 4.1) and normalise
vectors by their gcd to keep numbers small.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from repro.exceptions import DimensionMismatchError

__all__ = [
    "as_fraction_vector",
    "clear_denominators",
    "normalize_integer_vector",
    "dot",
    "is_zero_vector",
    "scale_to_natural",
]


def as_fraction_vector(vector: Iterable[object]) -> tuple[Fraction, ...]:
    """Coerce every component of *vector* to an exact :class:`Fraction`."""
    return tuple(Fraction(component) for component in vector)


def dot(left: Sequence[object], right: Sequence[object]) -> Fraction:
    """Exact dot product of two equally-sized vectors."""
    if len(left) != len(right):
        raise DimensionMismatchError(
            f"cannot take the dot product of vectors of sizes {len(left)} and {len(right)}"
        )
    total = Fraction(0)
    for a, b in zip(left, right):
        total += Fraction(a) * Fraction(b)
    return total


def is_zero_vector(vector: Sequence[object]) -> bool:
    """``True`` when every component is zero."""
    return all(Fraction(component) == 0 for component in vector)


def clear_denominators(vector: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector by the lcm of its denominators to an integer vector.

    This is exactly the step in the proof of Theorem 4.1 that turns a
    rational solution ``q`` of the homogeneous system into the integer
    solution ``d = b·q`` with ``b = lcm`` of the denominators.
    """
    fractions = as_fraction_vector(vector)
    if not fractions:
        return ()
    denominator_lcm = 1
    for component in fractions:
        denominator_lcm = lcm(denominator_lcm, component.denominator)
    return tuple(int(component * denominator_lcm) for component in fractions)


def normalize_integer_vector(vector: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its components (gcd of 0-vector is 1)."""
    values = tuple(int(component) for component in vector)
    divisor = 0
    for component in values:
        divisor = gcd(divisor, abs(component))
    if divisor <= 1:
        return values
    return tuple(component // divisor for component in values)


def scale_to_natural(vector: Sequence[Fraction]) -> tuple[int, ...]:
    """Turn a non-negative rational vector into a non-negative integer vector.

    Combines :func:`clear_denominators` and :func:`normalize_integer_vector`
    and checks non-negativity.
    """
    integers = normalize_integer_vector(clear_denominators(vector))
    if any(component < 0 for component in integers):
        raise DimensionMismatchError(
            f"expected a non-negative vector, got {integers}"
        )
    return integers
