"""Unit tests for the exact Fourier-Motzkin feasibility solver."""

from fractions import Fraction

import pytest

from repro.exceptions import LinearSystemError
from repro.linalg import fourier_motzkin
from repro.linalg.fourier_motzkin import solve_strict_system
from repro.linalg.systems import HomogeneousStrictSystem


class TestFeasibility:
    def test_single_satisfiable_row(self):
        system = HomogeneousStrictSystem([[1, -1]])
        result = solve_strict_system(system)
        assert result.feasible
        assert system.is_solution(result.witness)

    def test_contradictory_rows(self):
        # x > 0 and -x > 0 cannot both hold.
        system = HomogeneousStrictSystem([[1], [-1]])
        assert not solve_strict_system(system).feasible

    def test_zero_row_is_infeasible(self):
        system = HomogeneousStrictSystem([[0, 0]])
        assert not solve_strict_system(system).feasible

    def test_paper_section4_system(self):
        # The system derived from the Section 4 example:
        #   -5ε1 +  ε2 + 3ε3 > 0
        #   -3ε1 -  ε2 + 3ε3 > 0
        #   - ε1 -  ε2 + 3ε3 > 0
        system = HomogeneousStrictSystem([[-5, 1, 3], [-3, -1, 3], [-1, -1, 3]])
        result = solve_strict_system(system)
        assert result.feasible
        assert system.is_solution(result.witness)
        # The paper's own solution also satisfies it.
        assert system.is_solution([0, 2, 1])

    def test_infeasible_three_dimensional_system(self):
        # Rows sum to the negation of each other: (1,1,-1), (-1,-1,1) cannot both be positive.
        system = HomogeneousStrictSystem([[1, 1, -1], [-1, -1, 1]])
        assert not solve_strict_system(system).feasible

    def test_empty_system_is_feasible(self):
        system = HomogeneousStrictSystem([], dimension=3)
        result = solve_strict_system(system)
        assert result.feasible
        assert result.witness == (Fraction(0),) * 3

    def test_require_positive_changes_the_answer(self):
        # -x + y > 0 is feasible, and with positivity (0 < x < y) still feasible;
        # but -x > 0 alone is feasible only without positivity.
        rising = HomogeneousStrictSystem([[-1, 1]])
        negative = HomogeneousStrictSystem([[-1]])
        assert solve_strict_system(rising, require_positive=True).feasible
        assert solve_strict_system(negative, require_positive=False).feasible
        assert not solve_strict_system(negative, require_positive=True).feasible

    def test_positive_witness_is_componentwise_positive(self):
        system = HomogeneousStrictSystem([[-5, 1, 3], [-3, -1, 3], [-1, -1, 3]])
        result = solve_strict_system(system, require_positive=True)
        assert result.feasible
        assert all(value > 0 for value in result.witness)
        assert system.is_solution(result.witness)

    def test_duplicate_and_scaled_rows_are_merged(self):
        system = HomogeneousStrictSystem([[1, -1], [2, -2], [Fraction(1, 2), Fraction(-1, 2)]])
        result = solve_strict_system(system)
        assert result.feasible
        assert system.is_solution(result.witness)

    def test_row_cap_raises(self, monkeypatch):
        # Every column has three positive and three negative coefficients, so any
        # elimination step must create 9 combined rows, exceeding the tiny cap.
        rows = [
            [1, -1, 2],
            [-1, 1, 3],
            [2, 1, -1],
            [-2, -1, 2],
            [1, -2, -1],
            [-1, 2, -2],
        ]
        system = HomogeneousStrictSystem(rows)
        monkeypatch.setattr(fourier_motzkin, "ROW_CAP", 3)
        with pytest.raises(LinearSystemError):
            solve_strict_system(system)

    def test_opposite_rows_combine_into_the_zero_row(self):
        # a and -a cannot both be strictly positive: eliminating any column
        # they share combines them into the zero row, which reads 0 > 0.
        system = HomogeneousStrictSystem([[2, 1, -1], [-2, -1, 1], [1, 0, 0]])
        assert not solve_strict_system(system).feasible


class TestWitnessExtraction:
    def test_witness_of_a_single_row(self):
        result = solve_strict_system(HomogeneousStrictSystem([[1, -2]]))
        assert result.feasible
        assert result.witness[0] - 2 * result.witness[1] > 0
        assert solve_strict_system(HomogeneousStrictSystem([[0, 0]])).witness is None

    def test_witness_for_larger_random_like_system(self):
        rows = [
            [3, -1, 0, -1],
            [-1, 2, -1, 0],
            [0, -1, 3, -1],
            [-1, 0, -1, 4],
        ]
        system = HomogeneousStrictSystem(rows)
        result = solve_strict_system(system, require_positive=True)
        assert result.feasible
        assert system.with_positivity().is_solution(result.witness)
