"""Property test: ``Session.decide()`` is the legacy decision procedure.

300 seeded adversarial pairs (shared core, one perturbed multiplicity — the
regime where the decision procedures have least slack) are decided through
a fresh :class:`Session` and through the legacy
``repro.core.decision.decide_bag_containment`` path, across strategies and
backends.  Verdicts, strategies, reasons and counterexample certificates
must be identical everywhere.
"""

import pytest

from repro.core.decision import decide_bag_containment
from repro.engine import use_backend
from repro.session import ContainmentRequest, Session
from repro.workloads.random_queries import random_adversarial_pair

CASES = 300

#: (strategy, backend) grid; bounded-guess is covered on a slice of the
#: seeds below to keep the enumeration inside the test budget.
GRID = [
    ("most-general", "interned"),
    ("most-general", "naive"),
    ("all-probes", "interned"),
    ("all-probes", "naive"),
]


def _legacy(containee, containing, strategy, backend, **kwargs):
    with use_backend(backend):
        return decide_bag_containment(containee, containing, strategy=strategy, **kwargs)


@pytest.mark.parametrize("chunk", range(10))
def test_session_matches_legacy_on_adversarial_pairs(chunk):
    seeds = range(chunk * (CASES // 10), (chunk + 1) * (CASES // 10))
    for seed in seeds:
        containee, containing = random_adversarial_pair(seed, num_atoms=3, head_size=2)
        strategy, backend = GRID[seed % len(GRID)]
        session = Session(backend=backend)

        legacy = _legacy(containee, containing, strategy, backend)
        fresh = session.decide(ContainmentRequest(containee, containing, strategy=strategy))

        context = f"seed={seed} strategy={strategy} backend={backend}"
        assert fresh.verdict == legacy.contained, context
        assert fresh.value.strategy == legacy.strategy == strategy, context
        assert fresh.value.reason == legacy.reason, context
        assert fresh.certificate == legacy.counterexample, context
        if not legacy.contained:
            assert fresh.certificate is not None, context
            assert fresh.certificate.verify(containee, containing), context


def test_session_matches_legacy_with_bounded_guess():
    """The guess-&-check strategy agrees too (smaller slice: it enumerates)."""
    checked = 0
    for seed in range(40):
        containee, containing = random_adversarial_pair(seed, num_atoms=2, head_size=1)
        session = Session(backend="interned")
        from repro.exceptions import EnumerationBudgetError

        try:
            legacy = _legacy(
                containee, containing, "bounded-guess", "interned", max_candidates=20_000
            )
        except EnumerationBudgetError:
            continue
        fresh = session.decide(
            ContainmentRequest(containee, containing, strategy="bounded-guess")
        )
        assert fresh.verdict == legacy.contained, f"seed={seed}"
        assert fresh.certificate == legacy.counterexample, f"seed={seed}"
        checked += 1
    assert checked >= 10  # the budget skip must not hollow the test out
