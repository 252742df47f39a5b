"""Batch entry points: many probe tuples / bags / targets per call.

The decision procedures and baselines of this library are embarrassingly
repetitive: the all-probes strategy re-maps the same containing query into a
freshly grounded containee once per probe tuple, and the brute-force
refuters re-evaluate the same grounded containee on thousands of candidate
bags that differ only in fact multiplicities.  The batch APIs give those
sweeps one entry point each (compiled plans are shared through the
backend's cache) and, for bags, amortise the homomorphism enumeration
itself:

* :func:`count_many` — one count per fixed-binding assignment;
* :func:`containment_mappings_many` — ``CM(q2, q1(t))`` per grounded
  containee, through one :class:`ContainmentMappingBatcher`;
* :func:`evaluate_bag_many` / :class:`BagBatchEvaluator` — homomorphisms
  only depend on the *support* of a bag, so they are enumerated once over
  the union support and each bag merely re-weights the cached contribution
  skeletons (Equation 2's product is recomputed per bag, the search is not).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.engine.backends import Backend, get_default_backend
from repro.exceptions import ReproError
from repro.queries.cq import ConjunctiveQuery
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance
from repro.relational.substitutions import Substitution
from repro.relational.terms import Term, Variable

__all__ = [
    "count_many",
    "containment_mappings_many",
    "ContainmentMappingBatcher",
    "evaluate_bag_many",
    "BagBatchEvaluator",
    "head_fixing",
]


def count_many(
    source_atoms: Iterable[Atom],
    target_atoms: Iterable[Atom],
    fixed_list: Sequence[Mapping[Variable, Term]],
    backend: Backend | None = None,
) -> tuple[int, ...]:
    """Count homomorphisms for many fixed-binding assignments at once.

    Every mapping in *fixed_list* must bind the same set of variables, so
    one compiled plan serves the whole sweep; a typical caller fixes the
    head variables of a query and sweeps the answer tuples.
    """
    fixed_list = list(fixed_list)
    if not fixed_list:
        return ()
    key_set = frozenset(fixed_list[0])
    for fixed in fixed_list[1:]:
        if frozenset(fixed) != key_set:
            raise ReproError("count_many requires every fixed mapping to bind the same variables")
    resolved = backend if backend is not None else get_default_backend()
    source = tuple(source_atoms)
    target = tuple(target_atoms)
    return tuple(resolved.count(source, target, fixed) for fixed in fixed_list)


def head_fixing(head: Sequence[Term], target: Sequence[Term]) -> dict[Variable, Term] | None:
    """Position-wise head bindings for a containment-style mapping.

    Maps each head term onto the corresponding target term: repeated head
    variables must agree, constant head terms must match exactly.  Returns
    ``None`` when the heads cannot be unified (no mapping exists) — the
    single implementation behind :func:`containment_mappings`,
    ``is_set_contained`` and the batchers here.
    """
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


class ContainmentMappingBatcher:
    """``CM(containing, grounded@probe)`` for a stream of grounded containees.

    The containing query's body and its head variables are extracted once;
    each :meth:`mappings` call then fixes the head against the probe and
    enumerates through the backend, whose cache shares the compiled plan
    across every probe aimed at the same grounded target.  Streaming
    callers (the all-probes decision strategy stops at the first refuting
    probe) use this class directly; :func:`containment_mappings_many` is
    the eager list-in/list-out wrapper.
    """

    __slots__ = ("containing", "_source", "_backend")

    def __init__(self, containing: ConjunctiveQuery, backend: Backend | None = None) -> None:
        self.containing = containing
        self._source = containing.body_atoms()
        self._backend = backend

    def mappings(
        self, grounded: ConjunctiveQuery, probe: Sequence[Term]
    ) -> tuple[Substitution, ...]:
        """``CM(containing, grounded@probe)``."""
        probe = tuple(probe)
        if self.containing.arity != len(probe):
            return ()
        fixed = head_fixing(self.containing.head, probe)
        if fixed is None:
            return ()
        backend = self._backend if self._backend is not None else get_default_backend()
        return tuple(backend.iterate(self._source, grounded.body_atoms(), fixed))


def containment_mappings_many(
    containing: ConjunctiveQuery,
    grounded_targets: Sequence[tuple[ConjunctiveQuery, Sequence[Term]]],
    backend: Backend | None = None,
) -> tuple[tuple[Substitution, ...], ...]:
    """``CM(q2(x2), q1(t))`` for a batch of grounded containees.

    *grounded_targets* is a sequence of ``(grounded containee, probe)``
    pairs, typically one per probe tuple of a single containee (see
    :class:`ContainmentMappingBatcher`).
    """
    batcher = ContainmentMappingBatcher(containing, backend=backend)
    return tuple(batcher.mappings(grounded, probe) for grounded, probe in grounded_targets)


class BagBatchEvaluator:
    """Evaluate one query on many bags sharing a support universe.

    Homomorphisms of ``q`` into a bag ``µ`` only depend on ``support(µ)``;
    the contribution of each homomorphism (Equation 2) is a product of fact
    multiplicities raised to body exponents.  The evaluator enumerates the
    homomorphisms into *support_atoms* once, caches the per-homomorphism
    ``(answer, ((fact, exponent), ...))`` skeletons, and then evaluates any
    bag whose support is a subset of the universe in time proportional to
    the number of skeletons — facts absent from a particular bag contribute
    a factor ``0`` exactly as in the reference semantics.
    """

    __slots__ = ("query", "support_atoms", "answer", "_skeletons")

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

        fixed: dict[Variable, Term] | None = {}
        if self.answer is not None:
            if len(self.answer) != query.arity:
                fixed = None  # a wrong-arity tuple is never an answer: multiplicity 0
            else:
                from repro.evaluation.homomorphisms import answer_fixing

                fixed = answer_fixing(query, self.answer)

        skeletons: list[tuple[tuple[Term, ...], tuple[tuple[Atom, int], ...]]] = []
        if fixed is not None:
            resolved = backend if backend is not None else get_default_backend()
            for homomorphism in resolved.iterate(query.body_atoms(), self.support_atoms, fixed):
                answer_tuple = homomorphism.apply_tuple(query.head)
                image = query.apply_substitution(homomorphism)
                skeletons.append((answer_tuple, tuple(image.body.items())))
        self._skeletons = tuple(skeletons)

    @property
    def num_homomorphisms(self) -> int:
        """Number of cached homomorphism skeletons."""
        return len(self._skeletons)

    @staticmethod
    def _contribution(items: tuple[tuple[Atom, int], ...], bag: BagInstance) -> int:
        """One homomorphism's Equation 2 product ``Π µ(α)^exponent`` on *bag*."""
        contribution = 1
        for fact, exponent in items:
            multiplicity = bag[fact]
            if multiplicity == 0:
                return 0
            contribution *= multiplicity**exponent
        return contribution

    def multiplicity(self, bag: BagInstance) -> int:
        """``q^µ(answer)`` for the pinned answer tuple (or the total over all)."""
        return sum(self._contribution(items, bag) for _, items in self._skeletons)

    def evaluate(self, bag: BagInstance):
        """The full answer bag ``q^µ`` (an :class:`AnswerBag`)."""
        from repro.evaluation.bag_evaluation import AnswerBag

        counts: dict[tuple[Term, ...], int] = {}
        for answer_tuple, items in self._skeletons:
            contribution = self._contribution(items, bag)
            if contribution:
                counts[answer_tuple] = counts.get(answer_tuple, 0) + contribution
        return AnswerBag(counts)


def evaluate_bag_many(
    query: ConjunctiveQuery,
    bags: Sequence[BagInstance],
    backend: Backend | None = None,
):
    """``q^µ`` for every bag in *bags*, sharing one homomorphism enumeration.

    The homomorphisms are enumerated once over the union of the bags'
    supports; each bag then only re-weights the cached contribution
    skeletons.  Returns one :class:`AnswerBag` per input bag, equal to
    ``evaluate_bag(query, bag)``.
    """
    bags = list(bags)
    universe: dict[Atom, None] = {}
    for bag in bags:
        for fact, _ in bag.items():
            universe.setdefault(fact, None)
    evaluator = BagBatchEvaluator(query, universe, backend=backend)
    return tuple(evaluator.evaluate(bag) for bag in bags)
