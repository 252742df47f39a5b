"""Bag-set semantics evaluation.

Under *bag-set* semantics (Chaudhuri–Vardi) the database is a **set**
instance but the query answer is a **bag**: the multiplicity of an answer
tuple is the *number of homomorphisms* producing it (every fact has
multiplicity one, so each homomorphism contributes exactly 1).

Bag-set semantics is the natural model of SQL ``SELECT`` (without
``DISTINCT``) over duplicate-free tables.  The paper notes that for bag-set
semantics the containment problem is equivalent to set containment, which is
the content of :func:`repro.containment.bag_set_containment.decide_bag_set_containment`
and of experiment E10.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine import get_default_backend
from repro.engine.batch import head_fixing
from repro.evaluation.bag_evaluation import AnswerBag
from repro.evaluation.homomorphisms import query_homomorphisms
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.instances import SetInstance
from repro.relational.terms import Term

__all__ = ["evaluate_bag_set", "bag_set_multiplicity", "evaluate_bag_set_ucq"]


def bag_set_multiplicity(
    query: ConjunctiveQuery, instance: SetInstance, answer: Sequence[Term]
) -> int:
    """Number of homomorphisms of *query* into *instance* producing *answer*.

    Runs in the engine's ``count`` mode: no substitution objects are built.
    An answer that does not fit the head (e.g. the wrong arity) counts 0.
    """
    fixed = head_fixing(query.head, tuple(answer))
    if fixed is None:
        return 0
    return get_default_backend().count(query.body_atoms(), instance.facts, fixed)


def evaluate_bag_set(query: ConjunctiveQuery, instance: SetInstance) -> AnswerBag:
    """The bag-set answer: each answer tuple counted with its homomorphism count."""
    counts: dict[tuple[Term, ...], int] = {}
    for homomorphism in query_homomorphisms(query, instance):
        answer = homomorphism.apply_tuple(query.head)
        counts[answer] = counts.get(answer, 0) + 1
    return AnswerBag(counts)


def evaluate_bag_set_ucq(ucq: UnionOfConjunctiveQueries, instance: SetInstance) -> AnswerBag:
    """Bag-set answer of a UCQ (pointwise sum over disjuncts)."""
    result = AnswerBag()
    for disjunct in ucq:
        result = result.add(evaluate_bag_set(disjunct, instance))
    return result
