"""A fixed pure-Python probe of the host's current speed.

The host's CPU speed drifts by up to 2x over seconds to minutes, and a
whole run can fall inside a slow stretch.  ``run.py`` therefore times this
probe between requests and scales each request's latency by how much
slower than the reference the probe ran around it.  The probe uses no
``repro`` code, so a change to the program under test cannot move it; it
exercises what the decision pipeline spends its time on: tuple-keyed dicts
and sets, small objects, sorting and exact rational arithmetic.

``REFERENCE_SECONDS`` is the probe's fastest time on a 2.1 GHz Xeon VM
under Python 3.11.7, so a scaled latency reads in milliseconds of that
host at its best.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: Fastest ``probe_seconds()`` on the reference host.
REFERENCE_SECONDS = 0.00031

#: A probe sample is the fastest of this many back-to-back probes, so an
#: interrupt during one of them does not read as a slow host.
REPEATS = 3


class _Cell:
    __slots__ = ("key", "weight")

    def __init__(self, key: tuple, weight: int) -> None:
        self.key = key
        self.weight = weight


def _work() -> int:
    table: dict[tuple, int] = {}
    for i in range(300):
        key = (i % 17, i % 5, i)
        table[key] = table.get((i % 17, i % 5, i - 1), 0) + i
    cells = [_Cell(key, value) for key, value in table.items()]
    cells.sort(key=lambda cell: (cell.key[1], -cell.weight))
    seen = {(cell.key[0], cell.key[1]) for cell in cells}
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i * i + 1, 3 * i + 2)
    return len(seen) + total.numerator % 7 + cells[0].weight


def probe_seconds() -> float:
    """The fastest of ``REPEATS`` timed probes, in seconds."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(REPEATS):
        started = clock()
        _work()
        best = min(best, clock() - started)
    return best
