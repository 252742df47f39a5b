"""Unit tests for monomials."""

from fractions import Fraction

import pytest

from repro.diophantine.monomials import Monomial
from repro.exceptions import DimensionMismatchError, DiophantineError


class TestConstruction:
    def test_exponents_compare_equal_to_fractions(self):
        monomial = Monomial(1, (2, 0, 3))
        assert monomial.exponents == (Fraction(2), Fraction(0), Fraction(3))
        assert monomial.coefficient == 1

    def test_integral_values_are_stored_as_ints(self):
        normalised = Monomial(Fraction(6, 2), (Fraction(2), 1))
        plain = Monomial(3, (2, 1))
        assert type(normalised.coefficient) is int
        assert all(type(exponent) is int for exponent in normalised.exponents)
        assert normalised == plain
        assert hash(normalised) == hash(plain)
        assert normalised.exponents == plain.exponents == (2, 1)

    def test_fractional_gmpi_exponents_stay_fractions(self):
        monomial = Monomial(Fraction(1, 2), (Fraction(3, 2), 2.0))
        assert monomial.coefficient == Fraction(1, 2)
        assert monomial.exponents == (Fraction(3, 2), 2)
        assert type(monomial.exponents[0]) is Fraction
        assert type(monomial.exponents[1]) is int
        assert not monomial.is_integral()

    def test_negative_coefficient_is_rejected(self):
        with pytest.raises(DiophantineError):
            Monomial(-1, (1,))

    def test_negative_exponent_is_rejected(self):
        with pytest.raises(DiophantineError):
            Monomial(1, (-1,))

    def test_unit(self):
        unit = Monomial.unit(3)
        assert unit.evaluate((5, 6, 7)) == 1
        assert unit.degree() == 0

    def test_from_exponents(self):
        assert Monomial.from_exponents((1, 2), coefficient=3).coefficient == 3


class TestStructure:
    def test_degree_is_the_exponent_sum(self):
        assert Monomial(1, (2, 1, 3)).degree() == 6

    def test_is_integral(self):
        assert Monomial(1, (2, 0)).is_integral()
        assert not Monomial(1, (Fraction(1, 2), 1)).is_integral()

    def test_integer_exponents(self):
        assert Monomial(1, (2, 0)).integer_exponents() == (2, 0)
        with pytest.raises(DiophantineError):
            Monomial(1, (Fraction(1, 2),)).integer_exponents()

    def test_support(self):
        assert Monomial(1, (2, 0, 1)).support() == frozenset({0, 2})


class TestEvaluation:
    def test_exact_evaluation(self):
        monomial = Monomial(2, (2, 1, 3))
        assert monomial.evaluate((1, 4, 3)) == 2 * 1 * 4 * 27

    def test_evaluation_at_zero(self):
        assert Monomial(5, (1, 1)).evaluate((0, 7)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Monomial(1, (1, 1)).evaluate((2,))

    def test_negative_points_are_rejected(self):
        with pytest.raises(DiophantineError):
            Monomial(1, (1,)).evaluate((-1,))

    def test_fractional_exponent_on_general_base_is_rejected(self):
        with pytest.raises(DiophantineError):
            Monomial(1, (Fraction(1, 2),)).evaluate((4,))

    def test_fractional_exponent_on_zero_or_one_is_fine(self):
        assert Monomial(1, (Fraction(1, 2),)).evaluate((1,)) == 1
        assert Monomial(1, (Fraction(1, 2),)).evaluate((0,)) == 0

    def test_float_evaluation(self):
        assert Monomial(1, (Fraction(1, 2),)).float_evaluate((4,)) == pytest.approx(2.0)


class TestAlgebra:
    def test_scale(self):
        assert Monomial(2, (1,)).scale(3).coefficient == 6

    def test_multiply_adds_exponents(self):
        product = Monomial(2, (1, 0)).multiply(Monomial(3, (2, 1)))
        assert product.coefficient == 6
        assert product.exponents == (Fraction(3), Fraction(1))

    def test_multiply_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Monomial(1, (1,)).multiply(Monomial(1, (1, 1)))

    def test_substitute_power_takes_the_dot_product(self):
        # u1^2 u2 u3^3 with epsilon = (0, 2, 1) becomes u^(0+2+3) = u^5.
        substituted = Monomial(1, (2, 1, 3)).substitute_power((0, 2, 1))
        assert substituted.exponents == (Fraction(5),)

    def test_substitute_power_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Monomial(1, (1, 1)).substitute_power((1,))


class TestRendering:
    def test_render_with_default_names(self):
        assert Monomial(1, (2, 1, 3)).render() == "u1^2·u2·u3^3"

    def test_render_with_coefficient_and_custom_names(self):
        assert Monomial(3, (0, 2)).render(("a", "b")) == "3·b^2"

    def test_render_constant_monomial(self):
        assert Monomial(1, (0, 0)).render() == "1"
