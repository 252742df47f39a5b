"""Unit tests for the scipy LP formulation, cross-checked against Fourier-Motzkin."""

import pytest

from repro.linalg.fourier_motzkin import solve_strict_system
from repro.linalg.lp_scipy import lp_feasibility
from repro.linalg.systems import HomogeneousStrictSystem


class TestLpFeasibility:
    def test_feasible_system_has_positive_margin_and_exact_witness(self):
        system = HomogeneousStrictSystem([[1, -1]])
        outcome = lp_feasibility(system)
        assert outcome.feasible
        assert outcome.margin > 0
        assert outcome.witness is not None
        assert system.is_solution(outcome.witness)
        assert outcome.exact

    def test_infeasible_system(self):
        system = HomogeneousStrictSystem([[1], [-1]])
        outcome = lp_feasibility(system)
        assert not outcome.feasible
        assert outcome.witness is None

    def test_empty_system(self):
        system = HomogeneousStrictSystem([], dimension=2)
        assert lp_feasibility(system).feasible

    def test_paper_section4_system(self):
        system = HomogeneousStrictSystem([[-5, 1, 3], [-3, -1, 3], [-1, -1, 3]])
        outcome = lp_feasibility(system, require_positive=True)
        assert outcome.feasible
        assert outcome.witness is not None
        assert all(value > 0 for value in outcome.witness)

    def test_witness_of_a_single_row(self):
        system = HomogeneousStrictSystem([[2, -1]])
        witness = lp_feasibility(system).witness
        assert witness is not None
        assert system.is_solution(witness)
        assert lp_feasibility(HomogeneousStrictSystem([[0, 0]])).witness is None


class TestAgreementWithExactSolver:
    @pytest.mark.parametrize(
        "rows, dimension",
        [
            ([[1, -1], [-1, 2]], 2),
            ([[1, 1], [-1, -1]], 2),
            ([[-5, 1, 3], [-3, -1, 3], [-1, -1, 3]], 3),
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3),
            ([[1, -2, 1], [-1, 1, -1], [0, 1, -1]], 3),
            ([[3, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 3, -1], [-1, 0, -1, 4]], 4),
        ],
    )
    @pytest.mark.parametrize("require_positive", [False, True])
    def test_verdicts_agree(self, rows, dimension, require_positive):
        system = HomogeneousStrictSystem(rows, dimension)
        exact = solve_strict_system(system, require_positive=require_positive).feasible
        lp = lp_feasibility(system, require_positive=require_positive)
        # A feasible LP answer with an exact witness is authoritative; an
        # infeasible LP answer must match the exact solver on these
        # well-conditioned systems.
        assert lp.feasible == exact
