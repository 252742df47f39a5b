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
  support universe, each kept as a skeleton of support numbers, and each
  bag merely re-weights the cached skeletons (the product is recomputed
  per bag, the search is not).  Evaluators of two queries over one
  :class:`Support` share its numbering and one read of each bag.
"""

from __future__ import annotations

from math import prod
from typing import Callable, Iterable, Mapping, Sequence

from repro.engine.backends import Backend, get_default_backend
from repro.queries.cq import ConjunctiveQuery
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance
from repro.relational.substitutions import Substitution
from repro.relational.terms import Term, Variable, term_sort_key

__all__ = [
    "ContainmentMappingBatcher",
    "BagBatchEvaluator",
    "Support",
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


def _factor_classes(
    query: ConjunctiveQuery, factors: Sequence[tuple[Atom, ...]]
) -> tuple[int, ...]:
    """For each factor, the first factor equal to it up to renaming its existential variables.

    Two factors share a class when a bijective renaming ``ρ`` of existential
    variables maps one onto the other atom by atom, with equal relations and
    body multiplicities; head variables and constants must match exactly.
    ``ρ`` fixes the head, so for every probe the later factor's mappings
    are the earlier one's composed with ``ρ⁻¹``, and ``h∘ρ⁻¹(ρ(β)) = h(β)``:
    both factors send their atoms onto the same images with the same
    multiplicities.

    The key of a factor lists its atoms in the order of their *shape*
    (relation, multiplicity, and terms with every existential variable
    blanked out), which no existential name affects, and then renames each
    existential variable to the position of its first occurrence.  Body
    order would not do: it follows variable names, so renamed copies could
    list their atoms differently.  Equal keys pair the factors' atoms
    position by position under one bijective renaming, so they still imply
    isomorphism; atoms of equal shape keep their body order.

    Factor 0 is always its own class and never stands in for a later
    factor: it also holds the atoms without existential variables.  So
    below three factors no factor can share, and nothing is computed.
    """
    if len(factors) < 3:
        return tuple(range(len(factors)))
    head = query.head_variables()
    body = query.body

    def existential(term: Term) -> bool:
        return isinstance(term, Variable) and term not in head

    def shape(atom: Atom) -> tuple:
        blanked = tuple(
            (-1, "", "") if existential(term) else term_sort_key(term) for term in atom.terms
        )
        return atom.relation, body[atom], blanked

    first: dict[tuple, int] = {}
    classes = [0]
    for index in range(1, len(factors)):
        names: dict[Term, int] = {}
        key = tuple(
            (
                atom.relation,
                body[atom],
                tuple(
                    names.setdefault(term, len(names)) if existential(term) else term
                    for term in atom.terms
                ),
            )
            for atom in sorted(factors[index], key=shape)
        )
        classes.append(first.setdefault(key, index))
    return tuple(classes)


class ContainmentMappingBatcher:
    """``CM(containing, grounded@probe)`` for a stream of grounded containees.

    The containing query's body and its head variables are extracted once;
    each :meth:`mappings` call then fixes the head against the probe and
    enumerates through the backend, whose cache compiles one plan template
    per shape of the containing body (or of a factor) and binds it to each
    grounded target, so streaming callers (the all-probes decision strategy
    stops at the first refuting probe) pay one cheap bind per probe and
    factor class.

    :attr:`factors` splits the body into factors, and
    ``mappings(..., factor=k)`` enumerates the k-th factor's atoms alone
    (an ordinary backend call with its own compiled plan), so a caller that
    only needs per-factor sums never builds the product.  :attr:`classes`
    maps each factor to the earlier factor it equals up to a renaming of
    its existential variables, whose per-factor sums are the same; both
    depend on the containing query only, so they hold for every probe.
    """

    __slots__ = ("containing", "_source", "_backend", "_factors", "_classes")

    def __init__(self, containing: ConjunctiveQuery, backend: Backend | None = None) -> None:
        self.containing = containing
        self._source = containing.body_atoms()
        self._backend = backend
        self._factors: tuple[tuple[Atom, ...], ...] | None = None
        self._classes: tuple[int, ...] | None = None

    @property
    def factors(self) -> tuple[tuple[Atom, ...], ...]:
        """The containing body's factors (computed on first use; see :func:`_body_factors`)."""
        if self._factors is None:
            self._factors = _body_factors(self.containing)
        return self._factors

    @property
    def classes(self) -> tuple[int, ...]:
        """Each factor's class representative (computed on first use; see :func:`_factor_classes`)."""
        if self._classes is None:
            self._classes = _factor_classes(self.containing, self.factors)
        return self._classes

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


#: One homomorphism's Equation 2 factors: ``(i, m(β))`` per body atom ``β``,
#: where ``i`` numbers the image ``h(β)`` in the evaluator's support universe.
_Skeleton = tuple[tuple[int, int], ...]

#: One body atom as a skeleton reads it: ``(relation, terms, m(β))``.
_Image = tuple[str, tuple[Term, ...], int]


def _skeleton(
    atoms: Sequence[_Image],
    image_of: Callable[[Term, Term], Term],
    support: Mapping[tuple[str, tuple[Term, ...]], int],
) -> _Skeleton | None:
    """The skeleton of the mapping *image_of* (a bindings ``get``) on *atoms*.

    ``None`` when some image lies outside the support universe.
    """
    skeleton = []
    for relation, terms, exponent in atoms:
        index = support.get((relation, tuple(map(image_of, terms, terms))))
        if index is None:
            return None
        skeleton.append((index, exponent))
    return tuple(skeleton)


class Support:
    """A numbered support universe: its facts in first-seen order.

    The evaluators of a containment pair (the certificate replay, the
    refuters' probe checks) share one, so the support is numbered once and
    each bag is read once, by :meth:`weights`, for both queries.
    """

    __slots__ = ("atoms", "numbers")

    def __init__(self, atoms: Iterable[Atom]) -> None:
        self.atoms = tuple(dict.fromkeys(atoms))
        self.numbers = {(atom.relation, atom.terms): index for index, atom in enumerate(self.atoms)}

    def weights(self, bag: BagInstance) -> list[int]:
        """``µ`` read once, aligned with the numbering (``0`` off the bag)."""
        return [bag[fact] for fact in self.atoms]


def _weight(skeleton: _Skeleton, weights: Sequence[int]) -> int:
    """``Π µ(h(β))^m(β)`` over one skeleton (``0`` as soon as a fact is absent)."""
    weight = 1
    for index, exponent in skeleton:
        multiplicity = weights[index]
        if multiplicity == 0:
            return 0
        weight *= multiplicity**exponent
    return weight


class BagBatchEvaluator:
    """Equation 2 for one query on many bags sharing a support universe.

    Each homomorphism ``h`` of ``q`` into the *support* contributes
    ``Π_α µ(α)^{µ_{h(q)}(α)}`` over the distinct atoms of ``h(q)``, whose
    multiplicities Equation 1 sums over the body atoms that collapse onto
    them.  The same product is ``Π_β µ(h(β))^{m(β)}`` over the body atoms
    ``β`` with their multiplicities ``m(β)``.  The support universe is
    numbered once (a :class:`Support`, built here from an iterable of
    atoms or passed in to share it), and a homomorphism is cached as the
    skeleton ``((i, m(β)) for β in body)``, where ``i`` is the number of the
    image ``h(β)``, read off the homomorphism's bindings: no image atom or
    image query is built.  A bag is read once into a list of weights
    aligned with the universe, so a bag whose support is a subset of the
    universe is evaluated in time proportional to the number of skeletons;
    facts absent from it weigh ``0``.  Evaluators sharing a support take
    one such list through :meth:`multiplicity_at`.

    With a pinned *answer* the head is fixed, so the body splits into
    factors that share no free variable (:func:`_body_factors`): each
    factor is enumerated on its own and the multiplicity is the product of
    the per-factor sums.  A star with ``k`` existential rays over ``r``
    leaves costs ``k·r`` skeletons instead of ``r^k``.  A factor whose
    variables the answer binds all (the whole body of a projection-free
    query) has one candidate mapping, the head fixing itself, and takes no
    engine call: its skeleton counts if every image lies in the universe,
    and the factor sums to ``0`` otherwise.  Without an answer the whole
    body is one factor and each skeleton keeps its answer tuple.  An
    answer that does not fit the head (wrong arity, or a repeated head
    variable asked to take two values) has multiplicity ``0``.
    """

    __slots__ = ("query", "support", "answer", "_factors", "_answers")

    def __init__(
        self,
        query: ConjunctiveQuery,
        support: Support | Iterable[Atom],
        answer: Sequence[Term] | None = None,
        backend: Backend | None = None,
    ) -> None:
        self.query = query
        self.support = support if isinstance(support, Support) else Support(support)
        self.answer = tuple(answer) if answer is not None else None
        self._answers: tuple[tuple[Term, ...], ...] = ()
        if self.answer is None:
            fixed: dict[Variable, Term] | None = {}
            factors: tuple[tuple[Atom, ...], ...] = (query.body_atoms(),)
        else:
            fixed = head_fixing(query.head, self.answer)
            factors = _body_factors(query)
        if fixed is None:
            # One factor without skeletons: every multiplicity is 0.
            self._factors: tuple[tuple[_Skeleton, ...], ...] = ((),)
            return
        numbers = self.support.numbers
        resolved = backend if backend is not None else get_default_backend()
        body = query.body
        head = query.head
        factor_skeletons = []
        answers = []
        for factor in factors:
            atoms = tuple((atom.relation, atom.terms, body[atom]) for atom in factor)
            mappings: Iterable[Callable[[Term, Term], Term]]
            if all(
                term in fixed
                for atom in factor
                for term in atom.terms
                if isinstance(term, Variable)
            ):
                # The head fixing is the factor's only candidate mapping.
                mappings = (fixed.get,)
            else:
                mappings = (
                    homomorphism.bindings().get
                    for homomorphism in resolved.iterate(factor, self.support.atoms, fixed)
                )
            skeletons = []
            for image_of in mappings:
                skeleton = _skeleton(atoms, image_of, numbers)
                if skeleton is not None:
                    skeletons.append(skeleton)
                    if self.answer is None:
                        answers.append(tuple(map(image_of, head, head)))
            factor_skeletons.append(tuple(skeletons))
        self._factors = tuple(factor_skeletons)
        self._answers = tuple(answers)

    def multiplicity(self, bag: BagInstance) -> int:
        """``q^µ(answer)`` for the pinned answer tuple (or the total over all)."""
        return self.multiplicity_at(self.support.weights(bag))

    def multiplicity_at(self, weights: Sequence[int]) -> int:
        """:meth:`multiplicity` on a bag already read by ``self.support.weights``."""
        return prod(
            sum(_weight(skeleton, weights) for skeleton in factor) for factor in self._factors
        )

    def evaluate(self, bag: BagInstance):
        """The full answer bag ``q^µ`` (an :class:`AnswerBag`)."""
        from repro.evaluation.bag_evaluation import AnswerBag

        if self.answer is not None:
            return AnswerBag({self.answer: self.multiplicity(bag)})
        weights = self.support.weights(bag)
        counts: dict[tuple[Term, ...], int] = {}
        (factor,) = self._factors
        for answer, skeleton in zip(self._answers, factor):
            counts[answer] = counts.get(answer, 0) + _weight(skeleton, weights)
        return AnswerBag(counts)
