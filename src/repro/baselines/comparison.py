"""Cross-checking the exact decider against the baselines.

The functions here are the backbone of the integration tests and of
experiments E9/E10: they run the exact decision procedure next to the
brute-force refuters and the set/bag-set deciders and report any
disagreement (of which there must be none in the directions where the
baselines are sound).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.refuters import RefutationOutcome, bounded_bag_refuter, random_bag_refuter
from repro.containment.set_containment import is_set_contained
from repro.core.decision import BagContainmentResult, decide_bag_containment
from repro.exceptions import ContainmentError
from repro.queries.cq import ConjunctiveQuery

__all__ = ["AgreementReport", "cross_check"]


@dataclass(frozen=True)
class AgreementReport:
    """Comparison of the exact decider with the baselines on one query pair.

    ``consistent`` is ``False`` only when a baseline produced evidence that
    contradicts the exact verdict (a found counterexample against a positive
    verdict, or a positive verdict of the exact decider with failing set
    containment, which is impossible because bag containment implies set
    containment).
    """

    containee: ConjunctiveQuery
    containing: ConjunctiveQuery
    exact: BagContainmentResult
    set_contained: bool
    bounded: RefutationOutcome
    randomized: RefutationOutcome
    consistent: bool
    notes: tuple[str, ...]


def cross_check(
    containee: ConjunctiveQuery,
    containing: ConjunctiveQuery,
    max_multiplicity: int = 3,
    random_trials: int = 100,
    seed: int | None = 0,
    strategy: str = "most-general",
    session=None,
) -> AgreementReport:
    """Run the exact decider and every baseline on one pair and compare.

    Raises :class:`ContainmentError` when an inconsistency is detected, so
    tests can simply call this function on generated workloads.

    All decisions run through the session passed in, else the session
    active in the current context, so repeated cross-checks share the
    session's compiled plans and the exact decider and the baselines see the
    same backend.  Without either, the call runs on the shared session-less
    instances, like every other session-less call.
    """
    from contextlib import nullcontext

    from repro.session.session import current_session

    if session is None:
        session = current_session()
    context = session.activate() if session is not None else nullcontext()
    with context:
        exact = decide_bag_containment(containee, containing, strategy=strategy)
        set_contained = is_set_contained(containee, containing)
        bounded = bounded_bag_refuter(containee, containing, max_multiplicity=max_multiplicity)
        randomized = random_bag_refuter(
            containee, containing, trials=random_trials, seed=seed
        )

    notes: list[str] = []
    consistent = True

    if exact.contained and not set_contained:
        consistent = False
        notes.append("bag containment asserted but set containment fails")
    if exact.contained and bounded.refuted:
        consistent = False
        notes.append("bag containment asserted but the bounded refuter found a counterexample")
    if exact.contained and randomized.refuted:
        consistent = False
        notes.append("bag containment asserted but the random refuter found a counterexample")
    if not exact.contained and exact.counterexample is None:
        consistent = False
        notes.append("negative verdict without a counterexample certificate")
    if not exact.contained and exact.counterexample is not None:
        if not exact.counterexample.verify(containee, containing):
            consistent = False
            notes.append("the exact decider's counterexample does not verify")

    report = AgreementReport(
        containee=containee,
        containing=containing,
        exact=exact,
        set_contained=set_contained,
        bounded=bounded,
        randomized=randomized,
        consistent=consistent,
        notes=tuple(notes),
    )
    if not consistent:
        raise ContainmentError(
            "inconsistency between the exact decider and the baselines: " + "; ".join(notes)
        )
    return report
