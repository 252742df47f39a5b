"""Set-semantics evaluation of conjunctive queries and UCQs.

The answer of ``q(x)`` over a set instance ``I`` is the set of tuples
``c ∈ adom(I)^|x|`` such that some homomorphism of the body into ``I`` maps
the head onto ``c``.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine import get_default_backend
from repro.evaluation.homomorphisms import query_homomorphisms
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.instances import SetInstance
from repro.relational.terms import Term

__all__ = ["evaluate_set", "evaluate_set_ucq", "holds", "answer_tuples"]


def answer_tuples(query: ConjunctiveQuery, instance: SetInstance) -> Iterator[tuple[Term, ...]]:
    """Yield each distinct answer tuple of *query* over *instance* once."""
    seen: set[tuple[Term, ...]] = set()
    for homomorphism in query_homomorphisms(query, instance):
        answer = homomorphism.apply_tuple(query.head)
        if answer not in seen:
            seen.add(answer)
            yield answer


def evaluate_set(query: ConjunctiveQuery, instance: SetInstance) -> frozenset[tuple[Term, ...]]:
    """``q^I``: the set of answer tuples of *query* over *instance*."""
    return frozenset(answer_tuples(query, instance))


def evaluate_set_ucq(
    ucq: UnionOfConjunctiveQueries, instance: SetInstance
) -> frozenset[tuple[Term, ...]]:
    """Set answer of a UCQ: the union of the answers of its disjuncts."""
    answers: set[tuple[Term, ...]] = set()
    for disjunct in ucq:
        answers.update(evaluate_set(disjunct, instance))
    return frozenset(answers)


def holds(query: ConjunctiveQuery, instance: SetInstance) -> bool:
    """Whether a Boolean query holds (has at least one homomorphism) on *instance*.

    For non-Boolean queries this means "has at least one answer tuple".
    Runs in the engine's ``exists`` mode: the search stops at the first
    homomorphism without materialising any substitution.
    """
    return get_default_backend().exists(query.body_atoms(), instance.facts)
