"""Set-semantics containment and equivalence of conjunctive queries.

Chandra and Merlin: ``q1 ⊑s q2`` iff there is a containment mapping from
``q2`` to ``q1`` (a homomorphism of the body of ``q2`` into the body of
``q1`` that maps the head of ``q2`` onto the head of ``q1``).  The decision
problem is NP-complete; the enumeration here is the same backtracking search
used everywhere else in the library.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import get_default_backend
from repro.engine.batch import head_fixing
from repro.evaluation.homomorphisms import containment_mappings
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.substitutions import Substitution

__all__ = [
    "SetContainmentResult",
    "decide_set_containment",
    "is_set_contained",
    "are_set_equivalent",
    "decide_set_containment_ucq",
]


@dataclass(frozen=True)
class SetContainmentResult:
    """Outcome of a set-containment check, with its witnessing mapping."""

    contained: bool
    containee: ConjunctiveQuery
    containing: ConjunctiveQuery
    witness: Substitution | None = None

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return self.contained

    def explain(self) -> str:
        """A one-paragraph human-readable explanation of the outcome."""
        if self.contained:
            return (
                f"{self.containee.name} ⊑s {self.containing.name}: the containment mapping "
                f"{self.witness!r} maps {self.containing.name} into {self.containee.name}."
            )
        return (
            f"{self.containee.name} ⋢s {self.containing.name}: no containment mapping from "
            f"{self.containing.name} to {self.containee.name} exists."
        )


def decide_set_containment(
    containee: ConjunctiveQuery, containing: ConjunctiveQuery
) -> SetContainmentResult:
    """Decide ``containee ⊑s containing`` and return a witnessing mapping if any."""
    witness = next(containment_mappings(containing, containee), None)
    return SetContainmentResult(
        contained=witness is not None,
        containee=containee,
        containing=containing,
        witness=witness,
    )


def is_set_contained(containee: ConjunctiveQuery, containing: ConjunctiveQuery) -> bool:
    """Boolean shortcut for :func:`decide_set_containment`.

    Unlike the full decision (which materialises a witnessing mapping), this
    runs the engine in ``exists`` mode and stops at the first containment
    mapping.  Nothing is memoised here: a session memoises whole requests.
    """
    fixed = head_fixing(containing.head, containee.head)
    if fixed is None:
        return False
    return get_default_backend().exists(containing.body_atoms(), containee.body_atoms(), fixed)


def are_set_equivalent(first: ConjunctiveQuery, second: ConjunctiveQuery) -> bool:
    """Set equivalence: containment in both directions."""
    return is_set_contained(first, second) and is_set_contained(second, first)


def decide_set_containment_ucq(
    containee: UnionOfConjunctiveQueries, containing: UnionOfConjunctiveQueries
) -> bool:
    """Sagiv–Yannakakis criterion for UCQs.

    ``⋃ q_i ⊑s ⋃ p_j`` iff every disjunct ``q_i`` is set-contained in *some*
    disjunct ``p_j``.
    """
    for disjunct in containee:
        if not any(is_set_contained(disjunct, candidate) for candidate in containing):
            return False
    return True
