"""The table-backed polynomial against the monomial-built one, and the rows it feeds.

:meth:`Polynomial.from_table` takes a ``vector -> count`` table as the
encoding convolves it, checks it in bulk and builds no monomial.  It must
be indistinguishable from the polynomial built out of one
:class:`Monomial` per entry; the rows of Theorem 4.1 read off its table
must be the rows the system used to re-normalise at every step; and the
Fourier–Motzkin top level, which now trusts those rows, must return the
same witness as the old normalising top level.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import encode_most_general
from repro.diophantine.inequalities import MonomialPolynomialInequality
from repro.diophantine.monomials import Monomial
from repro.diophantine.polynomials import Polynomial
from repro.exceptions import DimensionMismatchError, DiophantineError
from repro.linalg import fourier_motzkin
from repro.linalg.fourier_motzkin import solve_strict_system
from repro.linalg.systems import HomogeneousStrictSystem
from repro.workloads.scale import wide_star_pair


@st.composite
def tables(draw, max_dimension: int = 4) -> tuple[dict[tuple[int, ...], int], int]:
    """A ``vector -> count`` table over one to *max_dimension* unknowns."""
    dimension = draw(st.integers(min_value=1, max_value=max_dimension))
    vectors = st.tuples(*[st.integers(min_value=0, max_value=4)] * dimension)
    table = draw(st.dictionaries(vectors, st.integers(min_value=1, max_value=6), max_size=8))
    return table, dimension


def _eager(table, dimension) -> Polynomial:
    return Polynomial([Monomial(count, vector) for vector, count in table.items()], dimension)


def _mpi(table, dimension, boost) -> MonomialPolynomialInequality:
    return MonomialPolynomialInequality(
        Polynomial.from_table(table, dimension), Monomial(1, (boost,) * dimension)
    )


class TestAgainstMonomials:
    @given(tables(), st.lists(st.integers(min_value=0, max_value=5), min_size=4, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_a_table_polynomial_equals_the_monomial_built_one(self, case, numbers):
        table, dimension = case
        point = tuple(numbers[:dimension])
        lazy, eager = Polynomial.from_table(table, dimension), _eager(table, dimension)
        assert lazy == eager and hash(lazy) == hash(eager)
        assert lazy.exponent_vectors() == eager.exponent_vectors()
        assert lazy.coefficients() == eager.coefficients()
        assert lazy.evaluate(point) == eager.evaluate(point)
        assert lazy.substitute_power(point) == eager.substitute_power(point)
        assert lazy.render() == eager.render()
        assert lazy.monomials == eager.monomials

    @given(tables(), st.lists(st.fractions(min_value=0, max_value=3, max_denominator=4), min_size=4, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_rational_substitution_matches_the_monomials(self, case, epsilon):
        table, dimension = case
        substituted = Polynomial.from_table(table, dimension).substitute_power(epsilon[:dimension])
        expected = Polynomial(
            [Monomial(count, vector).substitute_power(epsilon[:dimension]) for vector, count in table.items()],
            1,
        )
        assert substituted == expected
        assert all(type(e) is int or e.denominator > 1 for (e,) in substituted.exponent_vectors())

    @given(tables(), tables())
    @settings(max_examples=60, deadline=None)
    def test_sums_merge_like_monomials(self, left, right):
        (first, dimension), (second, _) = left, right
        second = {vector[:dimension] + (0,) * (dimension - len(vector)): c for vector, c in second.items()}
        total = Polynomial.from_table(first, dimension).add(Polynomial.from_table(second, dimension))
        assert total == Polynomial(
            list(_eager(first, dimension)) + list(_eager(second, dimension)), dimension
        )

    @given(tables())
    @settings(max_examples=60, deadline=None)
    def test_pickling_keeps_the_table_alone(self, case):
        polynomial = Polynomial.from_table(*case)
        polynomial.render()  # derives the monomials
        data = pickle.dumps(polynomial)
        assert b"Monomial" not in data
        restored = pickle.loads(data)
        assert restored == polynomial and restored.render() == polynomial.render()


class TestChecksOnTheTable:
    @pytest.mark.parametrize(
        "table, error",
        [
            ({(1, Fraction(1, 2)): 1}, DiophantineError),
            ({(1, 2.0): 1}, DiophantineError),
            ({(True, 2): 1}, DiophantineError),
            ({(1, -1): 1}, DiophantineError),
            ({(1, 2): 0}, DiophantineError),
            ({(1, 2): -3}, DiophantineError),
            ({(1, 2): Fraction(3)}, DiophantineError),
            ({(1, 2, 3): 1}, DimensionMismatchError),
            ({(1, 2): 1, (1,): 1}, DimensionMismatchError),
        ],
    )
    def test_what_a_monomial_enforces_still_holds(self, table, error):
        with pytest.raises(error):
            Polynomial.from_table(table, 2)

    def test_the_empty_table_is_the_zero_polynomial(self):
        assert Polynomial.from_table({}, 3) == Polynomial.zero(3)


class TestRows:
    @given(tables(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=150, deadline=None)
    def test_positivity_rows_equal_the_renormalised_rows(self, case, boost):
        table, dimension = case
        system = _mpi(table, dimension, boost).to_linear_system()
        identity = [tuple(int(i == j) for i in range(dimension)) for j in range(dimension)]
        raw = [
            tuple(boost - e for e in vector)
            for vector in _eager(table, dimension).exponent_vectors()
        ]
        # The old path rebuilt the system, re-normalising every row.
        renormalised = HomogeneousStrictSystem(raw + identity, dimension)
        assert system.with_positivity().integer_rows() == renormalised.integer_rows()
        assert system.with_positivity() == renormalised

    @given(tables(max_dimension=5), st.integers(min_value=1, max_value=4))
    @settings(max_examples=150, deadline=None)
    def test_the_trusting_top_level_returns_the_same_witness(self, case, boost):
        table, dimension = case
        working = _mpi(table, dimension, boost).to_linear_system().with_positivity()
        # The old top level: normalise and de-duplicate before eliminating.
        prepared, contradiction = fourier_motzkin._prepare(list(working.integer_rows()))
        solved = None
        if not contradiction:
            solved = fourier_motzkin._solve(prepared, list(range(dimension)), dimension, None)
        result = solve_strict_system(working)
        assert result.feasible is (solved is not None)
        if solved is not None:
            witness, scale = solved
            assert result.witness == tuple(Fraction(value, scale) for value in witness)

    def test_a_zero_row_is_still_a_contradiction(self):
        system = HomogeneousStrictSystem([(1, 0), (0, 0), (1, 0)])
        assert not solve_strict_system(system).feasible
        assert not solve_strict_system(system, require_positive=True).feasible


def test_a_pickled_encoding_describes_itself_alike():
    encoding = encode_most_general(*wide_star_pair(3, 4, 2, 2))
    restored = pickle.loads(pickle.dumps(encoding))
    assert restored.polynomial._monomials is None
    assert restored.describe() == encoding.describe()
    assert restored == encoding
