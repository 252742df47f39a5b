"""Query-level engine entry points: containment mappings and Equation 2.

The decision procedures and baselines of this library are repetitive: the
all-probes strategy re-maps the same containing query into a freshly
grounded containee once per probe tuple, and the brute-force refuters
re-evaluate the same grounded containee on thousands of candidate bags that
differ only in fact multiplicities.  Two classes serve those sweeps, and
both split a body into *factors* (:func:`_body_factors`) once the head is
fixed:

* :class:`ContainmentMappingBatcher` — ``CM(q2, q1(t))`` per grounded
  containee, or per factor of ``q2``'s body;
* :class:`BagBatchEvaluator` — Equation 2, the bag multiplicity
  ``q^µ(c)``, and the only implementation of it.  Homomorphisms only
  depend on the *support* of a bag, so they are enumerated once over a
  support universe and each bag merely re-weights the cached skeletons
  (the product is recomputed per bag, the search is not).
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Sequence

from repro.engine.backends import Backend, get_default_backend
from repro.queries.cq import ConjunctiveQuery
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance
from repro.relational.substitutions import Substitution
from repro.relational.terms import Term, Variable

__all__ = [
    "ContainmentMappingBatcher",
    "BagBatchEvaluator",
    "head_fixing",
]


def head_fixing(head: Sequence[Term], target: Sequence[Term]) -> dict[Variable, Term] | None:
    """Position-wise head bindings for a containment-style mapping.

    Maps each head term onto the corresponding target term: repeated head
    variables must agree, constant head terms must match exactly.  Returns
    ``None`` when the heads cannot be unified (no mapping exists), which
    includes heads of different lengths — the single head-binding helper
    behind containment mappings, query homomorphisms pinned to an answer,
    bag and bag-set multiplicities and the classes here.
    """
    if len(head) != len(target):
        return None
    fixed: dict[Variable, Term] = {}
    for source_term, target_term in zip(head, target):
        if isinstance(source_term, Variable):
            bound = fixed.get(source_term)
            if bound is not None and bound != target_term:
                return None
            fixed[source_term] = target_term
        elif source_term != target_term:
            return None
    return fixed


def _body_factors(query: ConjunctiveQuery) -> tuple[tuple[Atom, ...], ...]:
    """The body of *query* split into factors, each in body order.

    A factor is a set of atoms connected through non-head variables.  Atoms
    with no non-head variable (only head variables or constants) join the
    first factor.  Once the head is fixed, factors share no free variable,
    so a body's mappings are the Cartesian product of its factors'
    mappings.  Factors are ordered by their first atom.
    """
    atoms = query.body_atoms()
    head = query.head_variables()
    # Union-find over atom indices; a component's root is its first atom.
    root = list(range(len(atoms)))

    def find(index: int) -> int:
        while root[index] != index:
            index = root[index]
        return index

    first_atom: dict[Variable, int] = {}
    existential = [False] * len(atoms)
    for index, atom in enumerate(atoms):
        for term in atom.terms:
            if isinstance(term, Variable) and term not in head:
                existential[index] = True
                earlier = first_atom.setdefault(term, index)
                if earlier != index:
                    left, right = find(earlier), find(index)
                    root[max(left, right)] = min(left, right)
    if True not in existential:
        return (atoms,)
    first = existential.index(True)
    factors: dict[int, list[Atom]] = {}
    for index, atom in enumerate(atoms):
        factors.setdefault(find(index) if existential[index] else first, []).append(atom)
    return tuple(map(tuple, factors.values()))


class ContainmentMappingBatcher:
    """``CM(containing, grounded@probe)`` for a stream of grounded containees.

    The containing query's body and its head variables are extracted once;
    each :meth:`mappings` call then fixes the head against the probe and
    enumerates through the backend, whose cache shares the compiled plan
    across every probe aimed at the same grounded target, so streaming
    callers (the all-probes decision strategy stops at the first refuting
    probe) pay one plan compilation per target.

    :attr:`factors` splits the body into factors, and
    ``mappings(..., factor=k)`` enumerates the k-th factor's atoms alone
    (an ordinary backend call with its own compiled plan), so a caller that
    only needs per-factor sums never builds the product.
    """

    __slots__ = ("containing", "_source", "_backend", "_factors")

    def __init__(self, containing: ConjunctiveQuery, backend: Backend | None = None) -> None:
        self.containing = containing
        self._source = containing.body_atoms()
        self._backend = backend
        self._factors: tuple[tuple[Atom, ...], ...] | None = None

    @property
    def factors(self) -> tuple[tuple[Atom, ...], ...]:
        """The containing body's factors (computed on first use; see :func:`_body_factors`)."""
        if self._factors is None:
            self._factors = _body_factors(self.containing)
        return self._factors

    def mappings(
        self, grounded: ConjunctiveQuery, probe: Sequence[Term], factor: int | None = None
    ) -> tuple[Substitution, ...]:
        """``CM(containing, grounded@probe)``, or the mappings of one factor's atoms.

        A factor's mappings bind the head and that factor's variables only.
        """
        fixed = head_fixing(self.containing.head, tuple(probe))
        if fixed is None:
            return ()
        backend = self._backend if self._backend is not None else get_default_backend()
        source = self._source if factor is None else self.factors[factor]
        return tuple(backend.iterate(source, grounded.body_atoms(), fixed))


#: One homomorphism's Equation 2 factors: ``(h(β), m(β))`` per body atom ``β``.
_Skeleton = tuple[tuple[Atom, int], ...]


def _weight(skeleton: _Skeleton, bag: BagInstance) -> int:
    """``Π µ(h(β))^m(β)`` over one skeleton (``0`` as soon as a fact is absent)."""
    weight = 1
    for fact, exponent in skeleton:
        multiplicity = bag[fact]
        if multiplicity == 0:
            return 0
        weight *= multiplicity**exponent
    return weight


class BagBatchEvaluator:
    """Equation 2 for one query on many bags sharing a support universe.

    Each homomorphism ``h`` of ``q`` into *support_atoms* contributes
    ``Π_α µ(α)^{µ_{h(q)}(α)}`` over the distinct atoms of ``h(q)``, whose
    multiplicities Equation 1 sums over the body atoms that collapse onto
    them.  The same product is ``Π_β µ(h(β))^{m(β)}`` over the body atoms
    ``β`` with their multiplicities ``m(β)``, so a homomorphism is cached as
    the skeleton ``((h(β), m(β)) for β in body)`` and no image query is
    built.  A bag whose support is a subset of the universe is then
    evaluated in time proportional to the number of skeletons; facts
    absent from it contribute a factor ``0``.

    With a pinned *answer* the head is fixed, so the body splits into
    factors that share no free variable (:func:`_body_factors`): each
    factor is enumerated on its own and the multiplicity is the product of
    the per-factor sums.  A star with ``k`` existential rays over ``r``
    leaves costs ``k·r`` skeletons instead of ``r^k``.  Without an answer
    the whole body is one factor.  An answer that does not fit the head
    (wrong arity, or a repeated head variable asked to take two values)
    has multiplicity ``0``.
    """

    __slots__ = ("query", "support_atoms", "answer", "_factors")

    def __init__(
        self,
        query: ConjunctiveQuery,
        support_atoms: Iterable[Atom],
        answer: Sequence[Term] | None = None,
        backend: Backend | None = None,
    ) -> None:
        self.query = query
        self.support_atoms = tuple(dict.fromkeys(support_atoms))
        self.answer = tuple(answer) if answer is not None else None
        if self.answer is None:
            fixed: dict[Variable, Term] | None = {}
            factors: tuple[tuple[Atom, ...], ...] = (query.body_atoms(),)
        else:
            fixed = head_fixing(query.head, self.answer)
            factors = _body_factors(query)
        if fixed is None:
            # One factor without skeletons: every multiplicity is 0.
            self._factors: tuple[tuple[tuple[tuple[Term, ...], _Skeleton], ...], ...] = ((),)
            return
        resolved = backend if backend is not None else get_default_backend()
        body = query.body
        self._factors = tuple(
            tuple(
                (
                    homomorphism.apply_tuple(query.head),
                    tuple((homomorphism.apply_atom(atom), body[atom]) for atom in factor),
                )
                for homomorphism in resolved.iterate(factor, self.support_atoms, fixed)
            )
            for factor in factors
        )

    def multiplicity(self, bag: BagInstance) -> int:
        """``q^µ(answer)`` for the pinned answer tuple (or the total over all)."""
        return prod(
            sum(_weight(skeleton, bag) for _, skeleton in factor) for factor in self._factors
        )

    def evaluate(self, bag: BagInstance):
        """The full answer bag ``q^µ`` (an :class:`AnswerBag`)."""
        from repro.evaluation.bag_evaluation import AnswerBag

        if self.answer is not None:
            return AnswerBag({self.answer: self.multiplicity(bag)})
        counts: dict[tuple[Term, ...], int] = {}
        (factor,) = self._factors
        for answer, skeleton in factor:
            counts[answer] = counts.get(answer, 0) + _weight(skeleton, bag)
        return AnswerBag(counts)
