"""Exact Fourier–Motzkin elimination for strict homogeneous systems.

The decision ``∃ ε ∈ Q^n . A·ε > 0`` (all inequalities strict) is made by
repeatedly eliminating one unknown:

* rows with a positive coefficient on the eliminated unknown become strict
  *lower* bounds for it, rows with a negative coefficient become strict
  *upper* bounds, rows with a zero coefficient carry over unchanged;
* for every (lower, upper) pair the two rows are combined into a new strict
  row without the unknown;
* a row whose coefficients are all zero reads ``0 > 0`` and makes the system
  infeasible.

Because all inequalities are strict, the elimination is exact: the reduced
system is feasible iff the original one is, and a satisfying assignment of
the reduced system extends to the eliminated unknown by choosing any value
strictly between the induced lower and upper bounds.  Back-substitution
therefore also produces an explicit rational witness.

To keep the classic double-exponential blow-up at bay the implementation

* works on **gcd-reduced integer rows** throughout: the system's rows are
  primitive already (normalised once, when the system was built), each
  combined row is normalised once, and all elimination arithmetic is
  pure machine-integer multiply/add — no :class:`~fractions.Fraction`
  normalisation anywhere: the back-substitution carries the witness as an
  integer vector over one common denominator, compares bounds by
  cross-multiplying, and builds the returned :class:`~fractions.Fraction`
  witness only at the end;
* de-duplicates rows (two rows that are positive multiples of each other
  encode the same half-space); an opposite pair ``a``, ``−a`` combines into
  the zero row, which reads ``0 > 0`` and settles infeasibility at the next
  step;
* eliminates, at every step, the unknown minimising the number of
  lower×upper combinations (the standard min-fill heuristic);
* raises :class:`LinearSystemError` once the generated rows exceed
  :data:`ROW_CAP`, so the caller can fall back to the LP formulation;
* polls the ambient deadline (:func:`repro.faults.runtime.deadline_handle`)
  every :data:`~repro.faults.runtime.TICK_INTERVAL` rows it combines,
  normalises, partitions or scans for the next unknown, so an elimination
  heading for the row cap raises :class:`~repro.exceptions.DeadlineExceeded`
  inside the caller's budget.

The systems arising from monomial–polynomial inequalities in this library
have as many unknowns as the containee query has atoms, which is small, so
this exact solver is the one production decision path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator, Sequence

from repro.exceptions import LinearSystemError
from repro.faults.runtime import TICK_INTERVAL, deadline_handle
from repro.linalg.systems import HomogeneousStrictSystem

__all__ = ["FeasibilityResult", "ROW_CAP", "solve_strict_system"]

#: Safety cap on the number of rows generated during elimination.
ROW_CAP = 200_000


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a feasibility check, with a rational witness when feasible."""

    feasible: bool
    witness: tuple[Fraction, ...] | None = None

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return self.feasible


_Row = tuple[int, ...]


def _normalize(row: Sequence[int]) -> _Row | None:
    """Reduce an integer row to a primitive vector; ``None`` for the zero row."""
    divisor = gcd(*row)
    if divisor == 0:
        return None
    if divisor == 1:
        return tuple(row)
    return tuple(value // divisor for value in row)


def _polled(rows: Iterable[_Row], tick: Callable[[], None] | None) -> Iterable[_Row]:
    """*rows*, calling *tick* once every :data:`TICK_INTERVAL` rows (*rows* itself without one)."""
    if tick is None:
        return rows
    return _ticking(rows, tick)


def _ticking(rows: Iterable[_Row], tick: Callable[[], None]) -> Iterator[_Row]:
    countdown = TICK_INTERVAL
    for row in rows:
        countdown -= 1
        if not countdown:
            tick()
            countdown = TICK_INTERVAL
        yield row


def _prepare(
    rows: Iterable[_Row], tick: Callable[[], None] | None = None
) -> tuple[list[_Row], bool]:
    """Normalise and de-duplicate rows; report whether a ``0 > 0`` row was seen."""
    seen: set[_Row] = set()
    prepared: list[_Row] = []
    for row in _polled(rows, tick):
        normalized = _normalize(row)
        if normalized is None:
            return [], True
        if normalized not in seen:
            seen.add(normalized)
            prepared.append(normalized)
    return prepared, False


def _pick_variable(
    rows: list[_Row], active: list[int], tick: Callable[[], None] | None = None
) -> int:
    """Choose the active column whose elimination creates the fewest rows."""
    best_column = active[0]
    best_cost: int | None = None
    for column in active:
        lowers = 0
        uppers = 0
        for row in _polled(rows, tick):
            value = row[column]
            if value > 0:
                lowers += 1
            elif value < 0:
                uppers += 1
        cost = lowers * uppers
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_column = column
    return best_column


def _solve(
    prepared: list[_Row],
    active: list[int],
    dimension: int,
    tick: Callable[[], None] | None,
) -> tuple[list[int], int] | None:
    """Recursive Fourier–Motzkin over the *active* columns, with back-substitution.

    *prepared* holds distinct, primitive, non-zero integer rows.  The top
    level trusts the system's rows, which its constructor normalised
    (:func:`solve_strict_system` only drops duplicates and looks for a zero
    row); each level normalises and de-duplicates the rows it combines
    (:func:`_prepare`) before recursing.  The combination loop is pure
    integer arithmetic.  *tick* is the deadline handle, called every
    :data:`TICK_INTERVAL` rows of each pass over the rows.
    Returns ``None`` when infeasible, else the witness as an integer vector
    ``w`` over a common denominator ``s > 0`` (the point ``w / s``, reduced
    so that ``gcd(w, s) = 1``), defined on **all** columns; inactive
    columns get 0.
    """
    if not active:
        # No unknowns left to eliminate; any remaining non-zero row would have
        # been a contradiction only if all its active coefficients were zero,
        # which _prepare already detected, so the system is feasible.
        if prepared:
            return None
        return [0] * dimension, 1

    column = _pick_variable(prepared, active, tick)
    remaining = [other for other in active if other != column]

    lowers = [row for row in _polled(prepared, tick) if row[column] > 0]
    uppers = [row for row in _polled(prepared, tick) if row[column] < 0]
    reduced = [row for row in _polled(prepared, tick) if row[column] == 0]

    columns = range(dimension)
    countdown = TICK_INTERVAL if tick is not None else 0
    for lower in lowers:
        p = lower[column]
        for upper in uppers:
            if countdown:
                countdown -= 1
                if not countdown:
                    assert tick is not None
                    tick()
                    countdown = TICK_INTERVAL
            q = upper[column]
            combined = tuple(
                (-q) * lower[j] + p * upper[j] if j != column else 0 for j in columns
            )
            reduced.append(combined)
            if len(reduced) > ROW_CAP:
                raise LinearSystemError(
                    f"Fourier-Motzkin elimination exceeded the row cap of {ROW_CAP}; "
                    "use the LP-based solver for this system"
                )

    # Rows in `reduced` still have a zero coefficient on `column`, so they are
    # genuine constraints over the remaining columns only.
    reduced, contradiction = _prepare(reduced, tick)
    if contradiction:
        return None
    inner = _solve(reduced, remaining, dimension, tick)
    if inner is None:
        return None
    witness, scale = inner

    # Each bound on the column is the fraction n / (d·scale) with d > 0:
    # a row r reads r[column]·x > -Σ r[j]·w[j] / scale over the other
    # columns.  Bounds compare by cross-multiplying n/d.
    def bound(row: _Row) -> tuple[int, int]:
        rest = 0
        for j, coefficient in enumerate(row):
            if coefficient and j != column:
                rest += coefficient * witness[j]
        head = row[column]
        return (-rest, head) if head > 0 else (rest, -head)

    low = high = None
    for row in lowers:
        n, d = bound(row)
        if low is None or n * low[1] > low[0] * d:
            low = (n, d)
    for row in uppers:
        n, d = bound(row)
        if high is None or n * high[1] < high[0] * d:
            high = (n, d)

    # The new value is value / (multiplier·scale); the other columns scale by multiplier.
    if low is not None and high is not None:
        if not low[0] * high[1] < high[0] * low[1]:  # pragma: no cover - by construction
            raise LinearSystemError("internal error: empty interval during back-substitution")
        multiplier = 2 * low[1] * high[1]
        value = low[0] * high[1] + high[0] * low[1]
    elif low is not None:
        multiplier = low[1]
        value = low[0] + low[1] * scale
    elif high is not None:
        multiplier = high[1]
        value = high[0] - high[1] * scale
    else:
        multiplier, value = 1, 0

    if multiplier != 1:
        witness = [component * multiplier for component in witness]
        scale *= multiplier
    witness[column] = value
    divisor = gcd(scale, *witness)
    if divisor != 1:
        witness = [component // divisor for component in witness]
        scale //= divisor
    return witness, scale


def solve_strict_system(
    system: HomogeneousStrictSystem, require_positive: bool = False
) -> FeasibilityResult:
    """Decide feasibility of ``A·ε > 0`` (optionally with ``ε > 0``) exactly.

    When *require_positive* is set, the positivity rows ``ε_j > 0`` are added
    before solving; the witness, if any, is then component-wise positive.
    Raises :class:`LinearSystemError` when the elimination exceeds
    :data:`ROW_CAP` rows, and :class:`~repro.exceptions.DeadlineExceeded` when an ambient
    deadline (:func:`repro.faults.runtime.deadline_scope`) expires mid-elimination.
    """
    working = system.with_positivity() if require_positive else system
    dimension = working.dimension
    # The system's integer rows are already primitive (gcd-normalised at
    # construction), so the top level only drops duplicates and reads a
    # zero row as ``0 > 0``; the whole elimination runs on machine integers.
    rows = dict.fromkeys(working.integer_rows())
    if (0,) * dimension in rows:
        return FeasibilityResult(False)
    solved = _solve(list(rows), list(range(dimension)), dimension, deadline_handle())
    if solved is None:
        return FeasibilityResult(False)
    witness, scale = solved
    # A positive common denominator keeps every row's sign, so the integer
    # vector verifies exactly when the rational witness does.
    if len(working) > 0 and not working.is_solution(witness):  # pragma: no cover - sanity check
        raise LinearSystemError("internal error: Fourier-Motzkin witness does not verify")
    return FeasibilityResult(True, tuple(Fraction(component, scale) for component in witness))
