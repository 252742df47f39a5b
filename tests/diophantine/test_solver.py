"""Unit tests for the MPI decision procedure (Theorems 4.1 and 4.2)."""

import hashlib
import random

import pytest

from repro.diophantine.inequalities import GeneralizedMPI, MonomialPolynomialInequality
from repro.diophantine.monomials import Monomial
from repro.diophantine.polynomials import Polynomial
from repro.diophantine.solver import (
    decide_mpi,
    decide_mpi_via_lp,
    smallest_univariate_solution,
    solve_univariate_gmpi,
    witness_from_linear_solution,
)
from repro.exceptions import DiophantineError


def mpi(poly_terms, monomial_exponents) -> MonomialPolynomialInequality:
    dimension = len(monomial_exponents)
    polynomial = (
        Polynomial.from_terms(poly_terms, dimension) if poly_terms else Polynomial.zero(dimension)
    )
    return MonomialPolynomialInequality(polynomial, Monomial(1, monomial_exponents))


def section4_mpi() -> MonomialPolynomialInequality:
    return mpi([(1, (7, 0, 0)), (1, (5, 2, 0)), (1, (3, 0, 4))], (2, 1, 3))


class TestUnivariateCriterion:
    def test_lemma_4_1_solvable_iff_degree_gap(self):
        # u^4 + u^2 < u^4 is unsolvable; 2u^4 + 1 < u^5 is solvable (paper examples).
        unsolvable = GeneralizedMPI(
            Polynomial.from_terms([(1, (4,)), (1, (2,))]), Monomial(1, (4,))
        )
        solvable = GeneralizedMPI(
            Polynomial.from_terms([(2, (4,)), (1, (0,))]), Monomial(1, (5,))
        )
        assert not solve_univariate_gmpi(unsolvable)
        assert solve_univariate_gmpi(solvable)

    def test_zero_polynomial_is_always_solvable(self):
        assert solve_univariate_gmpi(GeneralizedMPI(Polynomial.zero(1), Monomial(1, (0,))))

    def test_criterion_requires_one_unknown(self):
        with pytest.raises(DiophantineError):
            solve_univariate_gmpi(GeneralizedMPI(Polynomial.zero(2), Monomial(1, (1, 1))))

    def test_smallest_solution_of_the_paper_1mpi(self):
        # 2u^4 + 1 < u^5 has 3 as its smallest natural solution.
        solvable = GeneralizedMPI(
            Polynomial.from_terms([(2, (4,)), (1, (0,))]), Monomial(1, (5,))
        )
        assert smallest_univariate_solution(solvable) == 3

    def test_smallest_solution_rejects_unsolvable_inequalities(self):
        unsolvable = GeneralizedMPI(Polynomial.from_terms([(1, (1,))]), Monomial(1, (1,)))
        with pytest.raises(DiophantineError):
            smallest_univariate_solution(unsolvable)

    def test_smallest_solution_can_be_one(self):
        # P = 0 (empty): the smallest natural solution of 0 < u^1 is 1.
        trivial = GeneralizedMPI(Polynomial.zero(1), Monomial(1, (1,)))
        assert smallest_univariate_solution(trivial) == 1

    @pytest.mark.parametrize(
        "constant, search_limit, expected",
        [
            # Doubling passes 10^9 at 2^30; the minimum 600000001 lies
            # between the last power of two probed (2^29) and the limit.
            (600_000_000, 10**9, 600_000_001),
            (20, 20, None),
            (20, 21, 21),
            (20, 40, 21),
        ],
    )
    def test_search_limit_is_inclusive(self, constant, search_limit, expected):
        # constant < u: its minimum constant + 1 is found iff the limit reaches it.
        gmpi = GeneralizedMPI(Polynomial.from_terms([(constant, (0,))]), Monomial(1, (1,)))
        if expected is None:
            with pytest.raises(DiophantineError, match="out of range"):
                smallest_univariate_solution(gmpi, search_limit=search_limit)
        else:
            assert smallest_univariate_solution(gmpi, search_limit=search_limit) == expected


class TestDecideMpi:
    def test_section4_example_is_solvable_with_verified_witness(self):
        decision = decide_mpi(section4_mpi())
        assert decision.solvable
        assert decision.linear_solution is not None
        assert decision.witness is not None
        assert section4_mpi().is_solution(decision.witness)
        assert decision.method == "fourier-motzkin"

    def test_unsolvable_mpi(self):
        # u1 + u2 < u1 can never hold over the naturals.
        decision = decide_mpi(mpi([(1, (1, 0)), (1, (0, 1))], (1, 0)))
        assert not decision.solvable
        assert decision.witness is None

    def test_same_exponents_both_sides_is_unsolvable(self):
        decision = decide_mpi(mpi([(1, (2, 3))], (2, 3)))
        assert not decision.solvable

    def test_lower_degree_polynomial_is_solvable(self):
        decision = decide_mpi(mpi([(1, (1, 0))], (2, 1)))
        assert decision.solvable
        assert mpi([(1, (1, 0))], (2, 1)).is_solution(decision.witness)

    def test_zero_polynomial_is_trivially_solvable(self):
        decision = decide_mpi(mpi([], (3, 1)))
        assert decision.solvable
        assert decision.witness == (1, 1)
        assert decision.method == "trivial"

    def test_coefficients_larger_than_one(self):
        # 5·u1 < u1^2 is solved by u1 = 6.
        decision = decide_mpi(mpi([(5, (1,))], (2,)))
        assert decision.solvable
        assert decision.witness is not None
        assert 5 * decision.witness[0] < decision.witness[0] ** 2

    def test_univariate_unsolvable_because_of_degrees(self):
        decision = decide_mpi(mpi([(1, (3,))], (2,)))
        assert not decision.solvable

    def test_unknowns_missing_from_the_monomial_can_be_zeroed(self):
        # u2 < 1 is solvable only by setting u2 = 0; the paper's reduction
        # (positive solutions) misses this, the support restriction finds it.
        decision = decide_mpi(mpi([(1, (0, 1))], (0, 0)))
        assert decision.solvable
        assert decision.witness == (0, 0)

        # u2 < u1: zeroing u2 and taking u1 = 1 works.
        decision = decide_mpi(mpi([(1, (0, 1))], (1, 0)))
        assert decision.solvable
        assert decision.witness is not None
        assert decision.witness[1] == 0
        assert mpi([(1, (0, 1))], (1, 0)).is_solution(decision.witness)

    def test_constant_monomial_with_a_constant_polynomial_term(self):
        # 1 + u1 < 1 is unsolvable: the constant part already reaches 1.
        decision = decide_mpi(mpi([(1, (0,)), (1, (1,))], (0,)))
        assert not decision.solvable

    def test_lp_path_handles_the_support_restriction_too(self):
        assert decide_mpi_via_lp(mpi([(1, (0, 1))], (0, 0))).solvable
        assert decide_mpi_via_lp(mpi([(2, (0, 3)), (1, (1, 0))], (2, 0))).solvable


class TestRowCapLpFallback:
    """Fourier–Motzkin row-cap overflows fall back to the LP path."""

    def _with_capped_fm(self, monkeypatch):
        from repro.diophantine import solver as solver_module
        from repro.exceptions import LinearSystemError

        def blown(*args, **kwargs):
            raise LinearSystemError("row cap exceeded (simulated)")

        monkeypatch.setattr(solver_module, "solve_strict_system", blown)

    def test_solvable_instance_survives_the_row_cap(self, monkeypatch):
        self._with_capped_fm(monkeypatch)
        decision = decide_mpi(section4_mpi())
        assert decision.solvable
        assert decision.method == "lp-fallback"
        assert decision.witness is not None
        assert section4_mpi().is_solution(decision.witness)

    def test_unsolvable_instance_survives_the_row_cap(self, monkeypatch):
        self._with_capped_fm(monkeypatch)
        decision = decide_mpi(mpi([(1, (1, 0)), (1, (0, 1))], (1, 0)))
        assert not decision.solvable
        assert decision.method == "lp-fallback"
        assert decision.witness is None


class TestDecideMpiViaLp:
    def test_agrees_with_exact_on_the_paper_example(self):
        exact = decide_mpi(section4_mpi())
        via_lp = decide_mpi_via_lp(section4_mpi())
        assert exact.solvable == via_lp.solvable
        assert section4_mpi().is_solution(via_lp.witness)

    def test_agrees_on_unsolvable_instances(self):
        inequality = mpi([(1, (1, 0)), (1, (0, 1))], (1, 1))
        assert decide_mpi(inequality).solvable == decide_mpi_via_lp(inequality).solvable

    def test_zero_polynomial(self):
        assert decide_mpi_via_lp(mpi([], (1,))).solvable

    @pytest.mark.parametrize(
        "poly_terms, monomial",
        [
            ([(1, (2, 0)), (1, (0, 2))], (1, 1)),
            ([(1, (1, 1))], (2, 2)),
            ([(3, (1, 0, 0)), (1, (0, 1, 1))], (1, 1, 1)),
            ([(1, (4, 0)), (2, (0, 4))], (2, 2)),
        ],
    )
    def test_agreement_on_a_small_family(self, poly_terms, monomial):
        inequality = mpi(poly_terms, monomial)
        assert decide_mpi(inequality).solvable == decide_mpi_via_lp(inequality).solvable


class TestWitnessFromLinearSolution:
    def test_paper_linear_solution_produces_a_witness(self):
        # d = (0, 2, 1) is the solution the paper derives for the linear system.
        witness = witness_from_linear_solution(section4_mpi(), (0, 2, 1))
        assert section4_mpi().is_solution(witness)
        # xi_1 = base^0 must be 1, exactly as in the paper's solutions.
        assert witness[0] == 1

    def test_invalid_linear_solutions_are_rejected(self):
        with pytest.raises(DiophantineError):
            witness_from_linear_solution(section4_mpi(), (1, 2))
        with pytest.raises(DiophantineError):
            witness_from_linear_solution(section4_mpi(), (-1, 2, 1))

    def test_linear_solution_that_does_not_separate_degrees_is_rejected(self):
        # d = (1, 1, 1) does not solve the linear system, so the induced
        # univariate inequality is unsolvable and the construction fails.
        with pytest.raises(DiophantineError):
            witness_from_linear_solution(section4_mpi(), (1, 1, 1))


def _dim9_mpi(seed: int) -> MonomialPolynomialInequality:
    """The dim-9, 27-term random family whose seed 16 overflows the FM row cap."""
    rng = random.Random(seed)
    monomial = Monomial(1, tuple(rng.randint(1, 3) for _ in range(9)))
    polynomial = Polynomial(
        [Monomial(1, tuple(rng.randint(0, 3) for _ in range(9))) for _ in range(27)],
        dimension=9,
    )
    return MonomialPolynomialInequality(polynomial, monomial)


#: ``(seed, solvable, method, linear_solution, witness_sha256)`` on the dim-9
#: frontier.  The decisions were generated while Fourier–Motzkin still pruned
#: implied rows, so they pin that elimination without the pruning decides the
#: same way.  The digest is the sha256 of the witness's ``repr``, generated on
#: ``Fraction`` arithmetic: it pins the Lemma 4.1 output byte for byte.
_DIM9_FRONTIER = [
    (10, True, "fourier-motzkin", (21, 1, 12, 1, 1, 1, 1, 1, 5),
     "0903a855dcc888b9d7b0768b15e584ecd6d0a0e8fb793a3e588cf87011cc9f51"),
    (11, True, "fourier-motzkin", (1, 1, 1, 1, 1, 1, 1, 1, 1),
     "db4d4b11cd9a9c41fdee75d28b2d352629295cea93449cb0d4aba58e972cf0b8"),
    (12, True, "fourier-motzkin", (1, 3, 4, 1, 1, 1, 1, 1, 1),
     "8a15d87bee38ae8c589a93f9b8ff84735f1c0b14586b02dee6b1375edea1bf51"),
    (13, True, "fourier-motzkin", (1, 1, 3, 1, 1, 1, 1, 1, 1),
     "9b21cd4cbcbadf960a2f9f011633531dd4e3c284a8b95ddd2a6a659bef69c86d"),
    (14, True, "fourier-motzkin", (2, 7, 2, 2, 2, 2, 2, 2, 2),
     "e1e24433d33b398c75b6a29ef70daba10ccb33004a8ae328ae7e2bf8acdf5072"),
    (15, False, "fourier-motzkin", None, None),
    (16, False, "lp-fallback", None, None),
    (17, True, "fourier-motzkin", (1, 1, 1, 1, 1, 1, 1, 1, 1),
     "db4d4b11cd9a9c41fdee75d28b2d352629295cea93449cb0d4aba58e972cf0b8"),
    (18, True, "fourier-motzkin", (3, 3, 16, 12, 3, 3, 3, 3, 7),
     "7b27a7725530c57bdf6c21cbedbebabaa78eab20c8ffa5b7bd9cd989a77d670e"),
    (19, True, "fourier-motzkin", (3, 1, 2, 1, 1, 1, 1, 1, 1),
     "0bf693d467e4da09f274c54aae0c845b88d8a3e1ad14abc410a6ddeb25e38cb0"),
    (20, True, "fourier-motzkin", (3, 3, 3, 3, 4, 3, 3, 3, 3),
     "2aeb062911b17191bb36325315a4a146a9ff27ab68c34ac80c711fba83fb523c"),
    (21, True, "fourier-motzkin", (1, 1, 1, 1, 4, 1, 1, 1, 1),
     "55db9df84d80430a8b1e21198fe910d3445fe0201d837b0349b959b683ca16bb"),
    (22, True, "fourier-motzkin", (2, 2, 2, 7, 2, 2, 2, 2, 8),
     "8e876bb936e66ad6f2b008c9a8aaebab78d7bee6520cde6cfe0d76633fb84d59"),
    (23, True, "fourier-motzkin", (1, 1, 1, 3, 1, 1, 1, 4, 1),
     "c70d9e9af05bc7c5423f6d4cf8a0067fc69a0a281f8729ad681d97dd4a28d0e8"),
    (24, True, "fourier-motzkin", (13, 9, 18, 3, 3, 3, 3, 3, 3),
     "adb5c482a1c4ad7e0184b73b09386dfe16ce4e75cfa814c7a5e4f1ffefac7636"),
    (25, True, "fourier-motzkin", (1, 1, 1, 1, 29, 14, 9, 16, 1),
     "c7c60e75b28a1531e977128eb1b1f84404c4d67675eaf6b5cae2d6c63857bd50"),
    (26, True, "fourier-motzkin", (7, 3, 6, 3, 3, 3, 3, 3, 3),
     "c27d68a58f3237b3d9a01a4115a7e9a0eb6b08a5f54d5c0df89a82a406709d97"),
    (27, True, "fourier-motzkin", (5, 3, 9, 3, 3, 3, 3, 3, 3),
     "3587b6c464e747ccd87f65f4490f9a378fce9cb50dd6c5ae2941a768d16f0337"),
    (28, True, "fourier-motzkin", (1, 10, 4, 8, 1, 1, 1, 1, 1),
     "27edfdb1d817c6d8491b2935f2fc8b33566610f276cb98b4975cef19c65f5b1d"),
    (29, True, "fourier-motzkin", (4, 3, 3, 6, 3, 3, 3, 3, 3),
     "12c95ade6186f8101e2ab7703523c1db3d9e0a0927ddfcf0a10a9f7c7452e84d"),
]


class TestFourierMotzkinFrontier:
    @pytest.mark.parametrize(
        "seed, solvable, method, linear_solution, witness_sha256",
        _DIM9_FRONTIER,
        ids=[f"seed{row[0]}" for row in _DIM9_FRONTIER],
    )
    def test_dim9_family_is_decided_as_pinned(
        self, seed, solvable, method, linear_solution, witness_sha256
    ):
        if method == "lp-fallback":
            pytest.importorskip("scipy")
        inequality = _dim9_mpi(seed)
        decision = decide_mpi(inequality)
        assert (decision.solvable, decision.method, decision.linear_solution) == (
            solvable,
            method,
            linear_solution,
        )
        if solvable:
            assert inequality.is_solution(decision.witness)
            assert hashlib.sha256(repr(decision.witness).encode()).hexdigest() == witness_sha256
        else:
            assert decision.witness is None
