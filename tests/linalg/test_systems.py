"""Unit tests for homogeneous strict inequality systems."""

from fractions import Fraction

import pytest

from repro.exceptions import DimensionMismatchError, LinearSystemError
from repro.linalg.systems import HomogeneousStrictSystem


class TestConstruction:
    def test_rows_are_converted_to_fractions(self):
        system = HomogeneousStrictSystem([[1, -2], [0.5, 1]])
        assert system.rows[1][0] == Fraction(1, 2)
        assert system.dimension == 2
        assert len(system) == 2

    def test_empty_system_needs_explicit_dimension(self):
        with pytest.raises(LinearSystemError):
            HomogeneousStrictSystem([])
        assert HomogeneousStrictSystem([], dimension=3).dimension == 3

    def test_inconsistent_row_lengths_are_rejected(self):
        with pytest.raises(DimensionMismatchError):
            HomogeneousStrictSystem([[1, 2], [1]])

    def test_equality_and_hash(self):
        first = HomogeneousStrictSystem([[1, 2]])
        second = HomogeneousStrictSystem([[1, 2]])
        assert first == second
        assert hash(first) == hash(second)


class TestEvaluation:
    def test_is_solution(self):
        system = HomogeneousStrictSystem([[1, -1], [0, 1]])
        assert system.is_solution([3, 1])
        assert not system.is_solution([1, 1])   # first row evaluates to 0, not > 0
        assert not system.is_solution([0, -1])

    def test_slack_and_violated_rows(self):
        system = HomogeneousStrictSystem([[1, -1], [0, 1]])
        assert system.slack([2, 5]) == (Fraction(-3), Fraction(5))
        assert system.violated_rows([2, 5]) == [0]
        assert system.violated_rows([5, 2]) == []

    def test_is_solution_checks_dimension(self):
        system = HomogeneousStrictSystem([[1, -1]])
        with pytest.raises(DimensionMismatchError):
            system.is_solution([1])

    def test_empty_system_accepts_everything(self):
        system = HomogeneousStrictSystem([], dimension=2)
        assert system.is_solution([0, 0])


class TestDerivedSystems:
    def test_with_positivity_adds_identity_rows(self):
        system = HomogeneousStrictSystem([[1, -1]])
        positive = system.with_positivity()
        assert len(positive) == 3
        assert positive.is_solution([2, 1])
        assert not positive.is_solution([2, 0])    # positivity row fails

    def test_restricted_to(self):
        system = HomogeneousStrictSystem([[1, 0], [0, 1], [1, 1]])
        restricted = system.restricted_to([0, 2])
        assert len(restricted) == 2
        assert restricted.rows[0] == (Fraction(1), Fraction(0))

    def test_max_coefficient_sum(self):
        system = HomogeneousStrictSystem([[1, -3], [2, 2]])
        assert system.max_coefficient_sum() == 4
        assert HomogeneousStrictSystem([], dimension=2).max_coefficient_sum() == 0


class TestIntegerFastPath:
    def test_integer_rows_scale_away_denominators(self):
        from fractions import Fraction

        system = HomogeneousStrictSystem([[Fraction(1, 2), Fraction(-1, 3)], [1, 0]])
        assert system.integer_rows() == ((3, -2), (1, 0))

    def test_integer_and_fraction_paths_agree(self):
        from fractions import Fraction
        from itertools import product

        system = HomogeneousStrictSystem(
            [[Fraction(1, 2), Fraction(-1, 3), 0], [1, -1, 1], [0, 0, 1]]
        )
        for vector in product(range(4), repeat=3):
            integer_verdict = system.is_solution(vector)
            fraction_verdict = all(value > 0 for value in system.slack(vector))
            assert integer_verdict == fraction_verdict

    def test_non_integer_vectors_use_the_exact_path(self):
        from fractions import Fraction

        system = HomogeneousStrictSystem([[1, -1]])
        assert system.is_solution((Fraction(1, 2), Fraction(1, 3)))
        assert not system.is_solution((Fraction(1, 3), Fraction(1, 2)))

    def test_integer_rows_are_gcd_normalized_at_construction(self):
        # Non-reduced rational input (Fraction(2,4)-style coefficients and
        # common factors across a row) must still produce primitive integer
        # rows, so the fast path multiplies the smallest possible numbers.
        system = HomogeneousStrictSystem(
            [
                [Fraction(2, 4), Fraction(6, 4)],   # == (1/2, 3/2) -> (1, 3)
                [2, 4],                              # common factor 2 -> (1, 2)
                [Fraction(10, 5), Fraction(-20, 5)], # == (2, -4)    -> (1, -2)
                [0, 0],                              # zero row stays zero
            ]
        )
        assert system.integer_rows() == ((1, 3), (1, 2), (1, -2), (0, 0))
        # The rational view is untouched (phi of Lemma 5.1 depends on it).
        assert system.rows[1] == (Fraction(2), Fraction(4))
        assert system.max_coefficient_sum() == 6

    def test_gcd_normalized_fast_path_agrees_with_slack(self):
        from itertools import product

        system = HomogeneousStrictSystem([[Fraction(2, 4), Fraction(6, 4)], [3, -6]])
        for vector in product(range(-2, 3), repeat=2):
            assert system.is_solution(vector) == all(
                value > 0 for value in system.slack(vector)
            )


class TestIntegerConstruction:
    """All-``int`` rows skip Fractions; every observable matches the Fraction path."""

    ROWS = [[2, -4, 0], [3, 0, -3], [0, 0, 0], [-1, 5, 2]]

    def _pair(self, rows=None, dimension=None):
        rows = self.ROWS if rows is None else rows
        integral = HomogeneousStrictSystem([tuple(row) for row in rows], dimension)
        rational = HomogeneousStrictSystem(
            [tuple(Fraction(value) for value in row) for row in rows], dimension
        )
        return integral, rational

    def test_int_and_fraction_built_systems_are_interchangeable(self):
        integral, rational = self._pair()
        assert integral == rational
        assert hash(integral) == hash(rational)
        assert integral.rows == rational.rows
        assert all(type(value) is Fraction for row in integral.rows for value in row)
        assert list(integral) == list(rational)
        assert integral.integer_rows() == rational.integer_rows() == (
            (1, -2, 0),
            (1, 0, -1),
            (0, 0, 0),
            (-1, 5, 2),
        )
        assert integral.max_coefficient_sum() == rational.max_coefficient_sum() == 6
        assert integral.slack((1, 1, 1)) == rational.slack((1, 1, 1))

    def test_with_positivity_matches_and_stays_integral(self):
        integral, rational = self._pair()
        positive = integral.with_positivity()
        assert positive == rational.with_positivity()
        assert hash(positive) == hash(rational.with_positivity())
        assert positive.integer_rows()[-3:] == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert positive.rows[-1] == (Fraction(0), Fraction(0), Fraction(1))

    def test_is_solution_matches_on_int_and_fraction_vectors(self):
        from itertools import product

        integral, rational = self._pair([[1, -1, 0], [0, 2, -1]])
        for vector in product(range(-1, 3), repeat=3):
            assert integral.is_solution(vector) == rational.is_solution(vector)
            halves = tuple(Fraction(value, 2) for value in vector)
            assert integral.is_solution(halves) == rational.is_solution(halves)
        assert integral.is_solution((Fraction(7, 2), 3, Fraction(5, 2)))
        assert integral.is_solution((3.5, 3, 2.5))

    def test_bool_and_mixed_input_take_the_fraction_path(self):
        flags = HomogeneousStrictSystem([(True, False)])
        assert flags.rows == ((Fraction(1), Fraction(0)),)
        assert flags.integer_rows() == ((1, 0),)
        mixed = HomogeneousStrictSystem([(1, Fraction(1, 2))])
        assert mixed.integer_rows() == ((2, 1),)
        assert mixed == HomogeneousStrictSystem([(Fraction(1), Fraction(1, 2))])

    def test_restricted_to_keeps_the_integer_rows(self):
        integral, rational = self._pair()
        assert integral.restricted_to([3, 0]) == rational.restricted_to([0, 3])
        assert integral.restricted_to([1]).integer_rows() == ((1, 0, -1),)

    def test_empty_and_dimension_errors_are_unchanged(self):
        with pytest.raises(LinearSystemError, match="explicit dimension"):
            HomogeneousStrictSystem([])
        with pytest.raises(LinearSystemError, match="non-negative"):
            HomogeneousStrictSystem([], dimension=-1)
        for rows in ([[1, 2], [1]], [[Fraction(1), Fraction(2)], [Fraction(1)]]):
            with pytest.raises(
                DimensionMismatchError,
                match=r"row \(Fraction\(1, 1\),\) has 1 components, expected 2",
            ):
                HomogeneousStrictSystem(rows)
        empty_int, empty_fraction = self._pair([], dimension=2)
        assert empty_int == empty_fraction and empty_int.rows == ()
        assert empty_int.with_positivity() == empty_fraction.with_positivity()
        zero_width = HomogeneousStrictSystem([()])
        assert zero_width.dimension == 0 and zero_width.rows == ((),)
