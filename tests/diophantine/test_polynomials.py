"""Unit tests for polynomials."""

from fractions import Fraction

import pytest

from repro.diophantine.monomials import Monomial
from repro.diophantine.polynomials import Polynomial
from repro.exceptions import DimensionMismatchError, DiophantineError


def section4_polynomial() -> Polynomial:
    """``u1^7 + u1^5·u2^2 + u1^3·u3^4`` — the polynomial of the Section 4 example."""
    return Polynomial.from_terms([(1, (7, 0, 0)), (1, (5, 2, 0)), (1, (3, 0, 4))])


class TestConstruction:
    def test_identical_exponent_vectors_are_merged(self):
        polynomial = Polynomial([Monomial(1, (1, 2)), Monomial(2, (1, 2)), Monomial(1, (0, 1))])
        assert len(polynomial) == 2
        coefficients = {m.exponents: m.coefficient for m in polynomial}
        assert coefficients[(Fraction(1), Fraction(2))] == 3

    def test_zero_coefficient_monomials_are_dropped(self):
        polynomial = Polynomial([Monomial(0, (1,)), Monomial(2, (2,))])
        assert len(polynomial) == 1

    def test_zero_polynomial_needs_explicit_dimension(self):
        with pytest.raises(DiophantineError):
            Polynomial([])
        assert Polynomial.zero(4).dimension == 4
        assert Polynomial.zero(4).is_zero()

    def test_mixed_dimensions_are_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Polynomial([Monomial(1, (1,)), Monomial(1, (1, 2))])

    def test_non_monomial_items_are_rejected(self):
        with pytest.raises(DiophantineError):
            Polynomial([1])  # type: ignore[list-item]

    def test_from_terms(self):
        polynomial = Polynomial.from_terms([(2, (1, 0)), (1, (0, 1))])
        assert polynomial.evaluate((3, 4)) == 10


class TestStructure:
    def test_degree(self):
        assert section4_polynomial().degree() == 7
        assert Polynomial.zero(2).degree() == 0

    def test_is_integral(self):
        assert section4_polynomial().is_integral()
        assert not Polynomial([Monomial(1, (Fraction(1, 2),))]).is_integral()

    def test_has_constant_term(self):
        assert Polynomial.from_terms([(1, (0, 0))]).has_constant_term()
        assert not section4_polynomial().has_constant_term()

    def test_coefficients_and_exponent_vectors_align(self):
        polynomial = section4_polynomial()
        assert len(polynomial.coefficients()) == len(polynomial.exponent_vectors()) == 3

    def test_equality_is_structural(self):
        assert section4_polynomial() == section4_polynomial()
        assert section4_polynomial() != Polynomial.zero(3)
        assert hash(section4_polynomial()) == hash(section4_polynomial())


class TestEvaluation:
    def test_paper_values(self):
        polynomial = section4_polynomial()
        assert polynomial.evaluate((1, 1, 1)) == 3
        assert polynomial.evaluate((1, 4, 3)) == 98
        assert polynomial.evaluate((0, 5, 5)) == 0

    def test_zero_polynomial_evaluates_to_zero(self):
        assert Polynomial.zero(2).evaluate((7, 8)) == 0

    def test_zero_polynomial_rejects_a_negative_point(self):
        with pytest.raises(DiophantineError):
            Polynomial.zero(2).evaluate((-5, -5))
        with pytest.raises(DiophantineError):
            Polynomial.zero(2).evaluate((0, -1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            section4_polynomial().evaluate((1, 1))

    def test_float_evaluation(self):
        assert section4_polynomial().float_evaluate((1.0, 4.0, 3.0)) == pytest.approx(98.0)


class TestAlgebra:
    def test_add(self):
        left = Polynomial.from_terms([(1, (1, 0))])
        right = Polynomial.from_terms([(2, (1, 0)), (1, (0, 1))])
        combined = left.add(right)
        assert combined.evaluate((1, 1)) == 4

    def test_add_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Polynomial.zero(1).add(Polynomial.zero(2))

    def test_scale(self):
        assert section4_polynomial().scale(2).evaluate((1, 1, 1)) == 6

    def test_substitute_power_matches_the_paper(self):
        # With epsilon = (0, 2, 1): u1^7 -> u^0, u1^5 u2^2 -> u^4, u1^3 u3^4 -> u^4,
        # so the substituted polynomial is 1 + 2·u^4.
        substituted = section4_polynomial().substitute_power((0, 2, 1))
        assert substituted.dimension == 1
        assert substituted.evaluate((3,)) == 1 + 2 * 81
        assert substituted.degree() == 4

    def test_render(self):
        assert Polynomial.zero(2).render() == "0"
        assert "u1^7" in section4_polynomial().render()
