"""Property-based tests for the Diophantine and linear layers."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diophantine.inequalities import GeneralizedMPI
from repro.diophantine.monomials import Monomial
from repro.diophantine.polynomials import Polynomial
from repro.diophantine.solver import decide_mpi, decide_mpi_via_lp, smallest_univariate_solution
from repro.linalg.fourier_motzkin import solve_strict_system
from repro.linalg.lp_scipy import lp_feasibility
from repro.linalg.rationals import clear_denominators, normalize_integer_vector, scale_to_natural
from repro.linalg.systems import HomogeneousStrictSystem

from tests.properties.strategies import mpis, strict_rows


class TestLinearSolvers:
    @given(strict_rows(dimension=3, max_rows=4))
    @settings(max_examples=60, deadline=None)
    def test_fourier_motzkin_witnesses_always_verify(self, rows):
        system = HomogeneousStrictSystem(rows, 3)
        result = solve_strict_system(system)
        if result.feasible:
            assert system.is_solution(result.witness)

    @given(strict_rows(dimension=3, max_rows=4))
    @settings(max_examples=60, deadline=None)
    def test_positive_witnesses_are_positive(self, rows):
        system = HomogeneousStrictSystem(rows, 3)
        result = solve_strict_system(system, require_positive=True)
        if result.feasible:
            assert all(value > 0 for value in result.witness)
            assert system.is_solution(result.witness)

    @given(strict_rows(dimension=3, max_rows=3))
    @settings(max_examples=40, deadline=None)
    def test_lp_feasible_implies_exactly_feasible(self, rows):
        """The LP fast path never claims feasibility the exact solver denies
        (when it returns an exactly-verified witness)."""
        system = HomogeneousStrictSystem(rows, 3)
        lp = lp_feasibility(system)
        exact = solve_strict_system(system)
        if lp.feasible and lp.exact:
            assert exact.feasible
        if not lp.feasible:
            # An infeasible LP verdict on these tiny integer systems matches
            # the exact answer (the margin formulation is exact up to
            # numerical noise far above the tolerance).
            assert not exact.feasible

    @given(strict_rows(dimension=2, max_rows=3))
    @settings(max_examples=40, deadline=None)
    def test_feasibility_is_scale_invariant(self, rows):
        system = HomogeneousStrictSystem(rows, 2)
        scaled = HomogeneousStrictSystem([[3 * value for value in row] for row in rows], 2)
        assert solve_strict_system(system).feasible == solve_strict_system(scaled).feasible


class TestRationalHelpers:
    @given(st.lists(st.fractions(min_value=0, max_value=10), min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_clear_denominators_preserves_direction(self, vector):
        integers = clear_denominators(vector)
        assert len(integers) == len(vector)
        # The scaled vector is a positive multiple of the original: ratios agree.
        nonzero = [(i, v) for i, v in zip(integers, vector) if v != 0]
        for (i1, v1) in nonzero:
            for (i2, v2) in nonzero:
                assert Fraction(i1) * Fraction(v2) == Fraction(i2) * Fraction(v1)

    @given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_normalize_keeps_signs_and_ratios(self, vector):
        normalized = normalize_integer_vector(vector)
        for original, scaled in zip(vector, normalized):
            assert (original == 0) == (scaled == 0)
            assert original * 1 >= 0 if scaled >= 0 else original < 0

    @given(st.lists(st.fractions(min_value=0, max_value=5), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_scale_to_natural_produces_naturals(self, vector):
        result = scale_to_natural(vector)
        assert all(isinstance(value, int) and value >= 0 for value in result)
        assert all((value == 0) == (component == 0) for value, component in zip(result, vector))


class TestMpiDecision:
    @given(mpis(dimension=2, max_monomials=3))
    @settings(max_examples=50, deadline=None)
    def test_solvable_decisions_carry_verified_witnesses(self, inequality):
        decision = decide_mpi(inequality)
        if decision.solvable:
            assert decision.witness is not None
            assert inequality.is_solution(decision.witness)
        else:
            assert decision.witness is None

    @given(mpis(dimension=2, max_monomials=3), st.tuples(st.integers(0, 5), st.integers(0, 5)))
    @settings(max_examples=60, deadline=None)
    def test_unsolvable_mpis_have_no_small_solutions(self, inequality, point):
        decision = decide_mpi(inequality)
        if not decision.solvable:
            assert not inequality.is_solution(point)

    @given(mpis(dimension=2, max_monomials=2))
    @settings(max_examples=30, deadline=None)
    def test_lp_and_exact_paths_agree(self, inequality):
        assert decide_mpi(inequality).solvable == decide_mpi_via_lp(inequality).solvable

    @given(mpis(dimension=3, max_monomials=3))
    @settings(max_examples=30, deadline=None)
    def test_proposition_4_1_zero_and_one_are_never_solutions(self, inequality):
        # Proposition 4.1 assumes every unknown actually occurs in the monomial
        # (which is always the case for the MPIs built from bag containment).
        if all(exponent > 0 for exponent in inequality.monomial.exponents):
            assert not inequality.is_solution((0, 0, 0))
        if not inequality.polynomial.is_zero():
            assert not inequality.is_solution((1, 1, 1))


def reference_value(coefficient, exponents, point) -> Fraction:
    """A monomial's value computed on ``Fraction`` arithmetic throughout.

    The oracle for the ``int``-native ``Monomial.evaluate``: every operand
    is converted to a ``Fraction`` first.  Shares no code with the library.
    """
    value = Fraction(coefficient)
    for base, exponent in zip(point, exponents):
        value *= Fraction(base) ** int(exponent)
    return value


def reference_smallest_solution(terms, degree) -> int:
    """The least ``u ≥ 1`` with ``Σ a·u^e < u^degree``, scanning upwards on ``Fraction``s."""
    u = 1
    while sum((reference_value(a, (e,), (u,)) for a, e in terms), Fraction(0)) >= Fraction(u) ** degree:
        u += 1
    return u


_naturals = st.integers(min_value=0, max_value=6)
#: A non-negative rational in each shape callers pass: ``int``, integral
#: ``Fraction``, proper ``Fraction`` and an exactly representable ``float``.
_rationals = st.one_of(
    _naturals,
    _naturals.map(Fraction),
    st.fractions(min_value=0, max_value=6, max_denominator=4),
    _naturals.map(lambda value: value / 2),
)
_exponents = st.one_of(st.integers(0, 4), st.integers(0, 4).map(Fraction))
_points = st.tuples(_rationals, _rationals, _rationals)


class TestIntegerArithmeticMatchesFractionReference:
    """Canonical ``int``/``Fraction`` storage gives the ``Fraction`` answers."""

    @given(_rationals, st.tuples(_exponents, _exponents, _exponents), _points)
    @settings(max_examples=100, deadline=None)
    def test_monomial_evaluation(self, coefficient, exponents, point):
        value = Monomial(coefficient, exponents).evaluate(point)
        assert value == reference_value(coefficient, exponents, point)
        if all(type(component) is int for component in (coefficient, *point)):
            assert type(value) is int

    @given(st.lists(st.tuples(_rationals, st.tuples(_exponents, _exponents, _exponents)), max_size=4), _points)
    @settings(max_examples=100, deadline=None)
    def test_polynomial_evaluation(self, terms, point):
        polynomial = Polynomial([Monomial(a, e) for a, e in terms], dimension=3)
        expected = sum((reference_value(a, e, point) for a, e in terms), Fraction(0))
        assert polynomial.evaluate(point) == expected

    @given(mpis(dimension=3, max_monomials=4), st.tuples(*[st.integers(0, 4)] * 3), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_specialize_at_natural_parameters(self, inequality, d, u):
        specialized = inequality.specialize(d)
        # The substituted exponent is the dot product e·d, taken on Fractions.
        assert specialized.polynomial == Polynomial(
            [
                Monomial(m.coefficient, (sum((Fraction(e) * k for e, k in zip(m.exponents, d)), Fraction(0)),))
                for m in inequality.polynomial
            ],
            dimension=1,
        )
        # The specialisation at u is the MPI at xi = u^d.
        xi = tuple(u**k for k in d)
        assert specialized.polynomial.evaluate((u,)) == sum(
            (reference_value(m.coefficient, m.exponents, xi) for m in inequality.polynomial), Fraction(0)
        )
        assert specialized.monomial.evaluate((u,)) == reference_value(1, inequality.monomial.exponents, xi)

    @given(st.integers(1, 5), st.lists(st.tuples(_rationals, st.integers(0, 4)), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_smallest_univariate_solution(self, degree, terms):
        # Every polynomial degree stays below the monomial's, so it is solvable.
        terms = [(a, e % degree) for a, e in terms]
        gmpi = GeneralizedMPI(
            Polynomial([Monomial(a, (e,)) for a, e in terms], dimension=1), Monomial(1, (degree,))
        )
        assert smallest_univariate_solution(gmpi) == reference_smallest_solution(terms, degree)
