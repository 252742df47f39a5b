"""Regenerate ``reference.json``: a verdict for every pool pair, off the timed path.

The benchmark's timed path decides ``q1 ⊑b q2`` on the default backend with
the exact Diophantine path (Fourier-Motzkin).  The reference comes from a
different one: the encoding is built on the ``naive`` engine backend and
its inequality decided by the scipy LP alone (``decide_mpi_via_lp`` with
``fall_back_to_exact=False``), so no Fourier-Motzkin code is involved.
Where the ``bounded-guess`` strategy fits a small enumeration budget, its
verdict must agree too.  The timed path is also run once, to refuse to
write a reference that disagrees with it (a disagreement is a bug to
investigate, not a reference entry) and to count the pairs on which
Fourier-Motzkin overflows to the LP: one such pair can cost seconds, so a
pool that gains one needs a look before the reference is committed.

Run from the repository root::

    PYTHONPATH=src python3 e2ebench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pools  # noqa: E402
from repro import Limits, Session  # noqa: E402
from repro.diophantine.solver import decide_mpi_via_lp  # noqa: E402
from repro.exceptions import EnumerationBudgetError  # noqa: E402

REFERENCE = HERE / "reference.json"

#: Candidate vectors the bounded-guess cross-check may enumerate per pair.
GUESS_BUDGET = 20_000


def reference_verdict(containee, containing) -> tuple[bool, str]:
    """``(contained, method)`` from the naive-backend encoding and the LP alone."""
    naive = Session(backend="naive", memoize=False)
    encoding = naive.mpi(containee, containing).value
    if not encoding.probe_unifiable_with_containing:
        return False, "head-unification"
    decision = decide_mpi_via_lp(encoding.inequality, fall_back_to_exact=False)
    contained = not decision.solvable
    guesser = Session(
        backend="naive",
        memoize=False,
        limits=Limits(bounded_guess_max_candidates=GUESS_BUDGET),
    )
    try:
        guessed = guesser.decide(containee, containing, strategy="bounded-guess").verdict
    except EnumerationBudgetError:
        return contained, "lp"
    if guessed != contained:
        raise SystemExit(f"lp and bounded-guess disagree on {containee} | {containing}")
    return contained, "lp+bounded-guess"


def main() -> int:
    pairs = []
    for stratum in pools.mixed_pool().values():
        pairs.extend(stratum)
    pairs.extend(pools.warm_pool())
    pairs.extend(pools.wide_representatives().values())

    verdicts: dict[str, int] = {}
    overflows = 0
    methods: dict[str, int] = {}
    for index, (containee, containing) in enumerate(pairs):
        key = pools.pair_key(containee, containing)
        if key in verdicts:
            continue
        contained, method = reference_verdict(containee, containing)
        timed = Session(memoize=False).decide(containee, containing)
        if timed.verdict != contained:
            raise SystemExit(
                f"timed path says {timed.verdict}, reference says {contained}: "
                f"{containee} | {containing}"
            )
        overflows += any(d.method == "lp-fallback" for d in timed.value.mpi_decisions)
        verdicts[key] = int(contained)
        methods[method] = methods.get(method, 0) + 1
        if index % 200 == 0:
            print(f"{index}/{len(pairs)} pairs", file=sys.stderr)

    document = {
        "about": "1 = contained, 0 = not contained; see make_reference.py",
        "methods": dict(sorted(methods.items())),
        "fm_overflows_on_the_timed_path": overflows,
        "verdicts": dict(sorted(verdicts.items())),
    }
    REFERENCE.write_text(json.dumps(document, indent=0) + "\n")
    print(
        f"wrote {len(verdicts)} verdicts to {REFERENCE.name}: {methods}, "
        f"{overflows} Fourier-Motzkin overflows on the timed path",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
