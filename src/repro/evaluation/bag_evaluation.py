"""Bag-semantics evaluation of conjunctive queries (Equation 2 of the paper).

Given a CQ ``q(x)`` and a bag ``µ`` over a set instance ``I``, the
multiplicity of an answer tuple ``c`` is::

    q^µ(c) = Σ_{h ∈ Hom(q(x), I), h(x)=c}  Π_{α ∈ body(h(q(x)))} µ(α)^{µ_{h(q(x))}(α)}

i.e. each homomorphism contributes the product, over the *distinct* atoms of
the ground query ``h(q(x))``, of the instance multiplicity of the atom raised
to the body multiplicity of the atom in ``h(q(x))`` — where collapsing atoms
have had their multiplicities summed, per Equation 1.  The formula is
implemented once, by :class:`repro.engine.BagBatchEvaluator`;
:func:`bag_multiplicity` and :func:`evaluate_bag` build one over the bag's
support.

:class:`AnswerBag` wraps the resulting ``{answer tuple: multiplicity}``
mapping with the sub-bag comparison used by the definition of bag
containment.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from repro.engine.batch import BagBatchEvaluator
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.instances import BagInstance
from repro.relational.terms import Term, term_sort_key


def _answer_sort_key(answer: tuple[Term, ...]) -> tuple:
    """Order answer tuples structurally (no ``str()`` collisions)."""
    return tuple(term_sort_key(term) for term in answer)

__all__ = [
    "AnswerBag",
    "bag_multiplicity",
    "evaluate_bag",
    "evaluate_bag_ucq",
]


class AnswerBag:
    """A bag of answer tuples: mapping from tuples of constants to multiplicities.

    Only answers with positive multiplicity are stored; querying an absent
    tuple returns ``0``, matching the convention of the paper.
    """

    __slots__ = ("_answers",)

    def __init__(self, answers: Mapping[tuple[Term, ...], int] | None = None) -> None:
        self._answers: dict[tuple[Term, ...], int] = (
            {} if answers is None else {answer: count for answer, count in answers.items() if count > 0}
        )

    def __getitem__(self, answer: Sequence[Term]) -> int:
        return self._answers.get(tuple(answer), 0)

    def __contains__(self, answer: object) -> bool:
        return tuple(answer) in self._answers  # type: ignore[arg-type]

    def __iter__(self) -> Iterator[tuple[Term, ...]]:
        return iter(sorted(self._answers, key=_answer_sort_key))

    def __len__(self) -> int:
        return len(self._answers)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AnswerBag):
            return self._answers == other._answers
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._answers.items()))

    def items(self) -> Iterator[tuple[tuple[Term, ...], int]]:
        """``(answer, multiplicity)`` pairs, ordered by term structure.

        The order is deterministic and collision-free: tuples are compared
        term by term via :func:`repro.relational.terms.term_sort_key`, so two
        distinct answers never tie the way ``str()``-keyed sorting allowed
        (e.g. ``Constant(1)`` vs ``Constant("1")``).
        """
        return iter(sorted(self._answers.items(), key=lambda item: _answer_sort_key(item[0])))

    def support(self) -> frozenset[tuple[Term, ...]]:
        """The set of answers with positive multiplicity."""
        return frozenset(self._answers)

    def total(self) -> int:
        """Sum of all answer multiplicities."""
        return sum(self._answers.values())

    def is_subbag_of(self, other: "AnswerBag") -> bool:
        """``self ⊆ other`` pointwise — the relation used by bag containment."""
        return all(count <= other[answer] for answer, count in self._answers.items())

    def violations(self, other: "AnswerBag") -> list[tuple[tuple[Term, ...], int, int]]:
        """Answers where ``self`` exceeds *other*: ``(tuple, self count, other count)``."""
        return [
            (answer, count, other[answer])
            for answer, count in self.items()
            if count > other[answer]
        ]

    def add(self, other: "AnswerBag") -> "AnswerBag":
        """Pointwise sum (used for UCQ evaluation)."""
        counts = dict(self._answers)
        for answer, count in other._answers.items():
            counts[answer] = counts.get(answer, 0) + count
        return AnswerBag(counts)

    def __repr__(self) -> str:
        inner = ", ".join(
            "(" + ", ".join(str(term) for term in answer) + f")^{count}"
            for answer, count in self.items()
        )
        return f"AnswerBag({{{inner}}})"


def bag_multiplicity(
    query: ConjunctiveQuery, bag: BagInstance, answer: Sequence[Term]
) -> int:
    """``q^µ(c)``: the bag multiplicity of a single answer tuple.

    A tuple that does not fit the head (e.g. of the wrong arity, as when
    two queries of different arities are compared) can never be an answer,
    so its multiplicity is 0.
    """
    return BagBatchEvaluator(query, bag.support().facts, answer=answer).multiplicity(bag)


def evaluate_bag(query: ConjunctiveQuery, bag: BagInstance) -> AnswerBag:
    """``q^µ``: the full answer bag of *query* over the bag instance *bag*.

    Only tuples with positive multiplicity are materialised, which matches
    the paper's convention of restricting ``q^µ`` to ``q(x)^I``.
    """
    return BagBatchEvaluator(query, bag.support().facts).evaluate(bag)


def evaluate_bag_ucq(ucq: UnionOfConjunctiveQueries, bag: BagInstance) -> AnswerBag:
    """Bag answer of a UCQ: the pointwise sum of the disjunct answer bags."""
    result = AnswerBag()
    for disjunct in ucq:
        result = result.add(evaluate_bag(disjunct, bag))
    return result
