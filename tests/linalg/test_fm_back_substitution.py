"""The fraction-free back-substitution against the ``Fraction`` one it replaced.

``_reference_solve`` is the earlier Fourier–Motzkin back-substitution,
kept here (and only here) as the specification: it carries the witness as
a ``Fraction`` vector and takes ``max``/``min`` over ``Fraction`` bounds.
The production solver carries an integer vector over one common
denominator; both must return the identical witness, component by
component, on every system, with and without the positivity rows.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.exceptions import LinearSystemError
from repro.linalg.fourier_motzkin import (
    FeasibilityResult,
    _pick_variable,
    _prepare,
    solve_strict_system,
)
from repro.linalg.systems import HomogeneousStrictSystem


def _reference_solve(rows, active, dimension):
    prepared, contradiction = _prepare(rows)
    if contradiction:
        return FeasibilityResult(False)
    if not active:
        if prepared:
            return FeasibilityResult(False)
        return FeasibilityResult(True, tuple(Fraction(0) for _ in range(dimension)))

    column = _pick_variable(prepared, active)
    remaining = [other for other in active if other != column]
    lowers = [row for row in prepared if row[column] > 0]
    uppers = [row for row in prepared if row[column] < 0]
    reduced = [row for row in prepared if row[column] == 0]
    for lower in lowers:
        for upper in uppers:
            p, q = lower[column], upper[column]
            reduced.append(
                tuple((-q) * lower[j] + p * upper[j] if j != column else 0 for j in range(dimension))
            )

    inner = _reference_solve(reduced, remaining, dimension)
    if not inner.feasible:
        return FeasibilityResult(False)
    witness = list(inner.witness)

    def bound(row):
        rest = sum(
            (row[j] * witness[j] for j in range(dimension) if j != column and row[j]),
            Fraction(0),
        )
        return -rest / row[column]

    lower_bounds = [bound(row) for row in lowers]
    upper_bounds = [bound(row) for row in uppers]
    if lower_bounds and upper_bounds:
        value = (max(lower_bounds) + min(upper_bounds)) / 2
    elif lower_bounds:
        value = max(lower_bounds) + 1
    elif upper_bounds:
        value = min(upper_bounds) - 1
    else:
        value = Fraction(0)
    witness[column] = value
    return FeasibilityResult(True, tuple(witness))


def _reference(system, require_positive):
    working = system.with_positivity() if require_positive else system
    return _reference_solve(
        list(working.integer_rows()), list(range(working.dimension)), working.dimension
    )


@st.composite
def systems(draw):
    dimension = draw(st.integers(min_value=1, max_value=6))
    coefficient = st.integers(min_value=-6, max_value=6)
    rows = draw(
        st.lists(st.lists(coefficient, min_size=dimension, max_size=dimension), max_size=5)
    )
    return HomogeneousStrictSystem(rows, dimension=dimension)


@given(systems(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_the_witness_matches_the_fraction_back_substitution(system, require_positive):
    try:
        result = solve_strict_system(system, require_positive=require_positive)
    except LinearSystemError:  # the row cap; five rows in six unknowns stay far below it
        reject()
    expected = _reference(system, require_positive)
    assert result.feasible == expected.feasible
    assert result.witness == expected.witness
    if result.feasible:
        assert all(type(component) is Fraction for component in result.witness)
        assert system.is_solution(result.witness)


def test_every_bound_case_over_a_non_unit_denominator():
    # Two lower bounds (x > y/2, x > 2y/3), one upper (x < y), a lone lower
    # bound on y and a column free of bounds: the midpoint, max + 1 and 0
    # cases all run, and the witness needs a common denominator.
    system = HomogeneousStrictSystem([[2, -1, 0], [3, -2, 0], [-1, 1, 0], [0, 1, 0]])
    for require_positive in (False, True):
        result = solve_strict_system(system, require_positive=require_positive)
        assert result.witness == _reference(system, require_positive).witness
        assert system.is_solution(result.witness)
