"""Unit tests for MPIs and GMPIs."""

from fractions import Fraction

import pytest

from repro.diophantine.inequalities import GeneralizedMPI, MonomialPolynomialInequality
from repro.diophantine.monomials import Monomial
from repro.diophantine.polynomials import Polynomial
from repro.exceptions import DimensionMismatchError, DiophantineError


def section4_mpi() -> MonomialPolynomialInequality:
    """``u1^7 + u1^5·u2^2 + u1^3·u3^4 < u1^2·u2·u3^3``."""
    polynomial = Polynomial.from_terms([(1, (7, 0, 0)), (1, (5, 2, 0)), (1, (3, 0, 4))])
    return MonomialPolynomialInequality(polynomial, Monomial(1, (2, 1, 3)))


class TestConstruction:
    def test_dimension_and_monomial_count(self):
        mpi = section4_mpi()
        assert mpi.dimension == 3
        assert mpi.num_monomials == 3

    def test_monomial_coefficient_must_be_one(self):
        with pytest.raises(DiophantineError):
            MonomialPolynomialInequality(Polynomial.zero(1), Monomial(2, (1,)))

    def test_dimensions_must_match(self):
        with pytest.raises(DimensionMismatchError):
            MonomialPolynomialInequality(Polynomial.zero(2), Monomial(1, (1,)))

    def test_fractional_exponents_need_the_generalized_class(self):
        with pytest.raises(DiophantineError):
            MonomialPolynomialInequality(Polynomial.zero(1), Monomial(1, (Fraction(1, 2),)))
        GeneralizedMPI(Polynomial.zero(1), Monomial(1, (Fraction(1, 2),)))  # fine

    def test_render(self):
        assert "<" in section4_mpi().render()


class TestSolutions:
    def test_paper_solutions_and_non_solutions(self):
        mpi = section4_mpi()
        # Proposition 4.1: zero components and the all-ones vector never work.
        assert not mpi.is_solution((0, 5, 5))
        assert not mpi.is_solution((1, 1, 1))
        # The paper's two explicit solutions.
        assert mpi.is_solution((1, 4, 3))
        assert mpi.is_solution((1, 9, 3))

    def test_non_natural_points_are_not_solutions(self):
        mpi = section4_mpi()
        assert not mpi.is_solution((1, -4, 3))
        assert not mpi.is_solution((1, True, 3))  # type: ignore[arg-type]

    def test_gap(self):
        mpi = section4_mpi()
        assert mpi.gap((1, 4, 3)) == 108 - 98
        assert mpi.gap((1, 1, 1)) < 0

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            section4_mpi().is_solution((1, 2))

    def test_gap_rejects_a_negative_component_after_a_zero(self):
        with pytest.raises(DiophantineError):
            section4_mpi().gap((0, -4, 3))
        empty = MonomialPolynomialInequality(Polynomial.zero(2), Monomial(1, (1, 1)))
        with pytest.raises(DiophantineError):
            empty.gap((0, -1))


class TestLinearSystemReduction:
    def test_rows_are_the_exponent_differences(self):
        system = section4_mpi().to_linear_system()
        rows = {tuple(int(value) for value in row) for row in system.rows}
        # (2,1,3) - (7,0,0), (2,1,3) - (5,2,0) and (2,1,3) - (3,0,4).
        assert rows == {(-5, 1, 3), (-3, -1, 3), (-1, 1, -1)}

    def test_system_equals_the_fraction_built_one(self):
        from fractions import Fraction

        from repro.linalg.systems import HomogeneousStrictSystem

        mpi = section4_mpi()
        monomial = mpi.monomial.exponents
        expected = HomogeneousStrictSystem(
            [tuple(Fraction(e - ei) for e, ei in zip(monomial, m.exponents)) for m in mpi.polynomial],
            mpi.dimension,
        )
        system = mpi.to_linear_system()
        assert system == expected and hash(system) == hash(expected)
        assert system.rows == expected.rows
        assert system.integer_rows() == expected.integer_rows()

    def test_zero_polynomial_gives_an_empty_system(self):
        mpi = MonomialPolynomialInequality(Polynomial.zero(2), Monomial(1, (1, 1)))
        system = mpi.to_linear_system()
        assert len(system) == 0
        assert system.dimension == 2

    def test_paper_epsilon_solves_the_system(self):
        assert section4_mpi().to_linear_system().is_solution((0, 2, 1))


class TestSpecialization:
    def test_specialize_reproduces_the_parametric_example(self):
        # With epsilon = (0, 2, 1) the paper derives the 1-MPI  2·u^4 + 1 < u^5.
        univariate = section4_mpi().specialize((0, 2, 1))
        assert univariate.is_univariate()
        assert univariate.monomial.degree() == 5
        assert univariate.polynomial.degree() == 4
        assert univariate.degree_gap() == 1
        # 3 is a solution of the specialized inequality (as stated in the paper).
        assert univariate.polynomial.evaluate((3,)) < univariate.monomial.evaluate((3,))

    def test_degree_gap_for_unsolvable_parameters(self):
        # epsilon = (1, 1, 1) keeps the polynomial's degree above the monomial's.
        univariate = section4_mpi().specialize((1, 1, 1))
        assert univariate.degree_gap() < 0


class TestGeneralizedMPI:
    def test_float_solution_check(self):
        gmpi = GeneralizedMPI(
            Polynomial([Monomial(1, (Fraction(1, 2),))]), Monomial(1, (2,))
        )
        assert gmpi.is_solution_float((4.0,))
        assert not gmpi.is_solution_float((1.0,))

    def test_monomial_coefficient_must_be_one(self):
        with pytest.raises(DiophantineError):
            GeneralizedMPI(Polynomial.zero(1), Monomial(3, (1,)))
