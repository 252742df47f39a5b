"""``BagBatchEvaluator`` against an independent reference of Equation 2.

The reference below is the evaluator as it was before skeletons became
support indexes: it builds every image atom ``h(β)`` and every head tuple,
enumerates every factor through the engine (a factor fully bound by the
answer included), and looks each image up in the bag itself.  The
production evaluator numbers the support universe, reads each bag once into
a weight list, and evaluates a factor that the answer binds completely
without the engine.  Both must agree on every query, answer and bag.
"""

from __future__ import annotations

from math import prod

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import BagBatchEvaluator
from repro.engine.backends import get_default_backend
from repro.engine.batch import _body_factors, head_fixing
from repro.evaluation.bag_evaluation import AnswerBag
from repro.queries.cq import ConjunctiveQuery
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance
from repro.relational.terms import Constant, Variable
from repro.session import Session

BACKENDS = ("naive", "interned")
VARIABLES = tuple(Variable(f"x{index}") for index in range(4))
QUERY_CONSTANTS = (Constant("a"), Constant("b"))
#: ``d`` occurs in no fact, so an answer holding it pins images outside the support.
ANSWER_CONSTANTS = (Constant("a"), Constant("b"), Constant("c"), Constant("d"))
FACT_CONSTANTS = (Constant("a"), Constant("b"), Constant("c"))
ARITIES = {"R": 2, "S": 1}
UNIVERSE = tuple(
    [Atom("R", (left, right)) for left in FACT_CONSTANTS for right in FACT_CONSTANTS]
    + [Atom("S", (term,)) for term in FACT_CONSTANTS]
)


def _reference_weight(skeleton, bag: BagInstance) -> int:
    weight = 1
    for fact, exponent in skeleton:
        multiplicity = bag[fact]
        if multiplicity == 0:
            return 0
        weight *= multiplicity**exponent
    return weight


class ReferenceEvaluator:
    """Equation 2 with ``(h(β), m(β))`` skeletons of image atoms, every factor through the engine."""

    def __init__(self, query: ConjunctiveQuery, support_atoms, answer=None) -> None:
        self.answer = tuple(answer) if answer is not None else None
        support = tuple(dict.fromkeys(support_atoms))
        if self.answer is None:
            fixed = {}
            factors = (query.body_atoms(),)
        else:
            fixed = head_fixing(query.head, self.answer)
            factors = _body_factors(query)
        if fixed is None:
            self.factors = ((),)
            return
        backend = get_default_backend()
        body = query.body
        self.factors = tuple(
            tuple(
                (
                    homomorphism.apply_tuple(query.head),
                    tuple((homomorphism.apply_atom(atom), body[atom]) for atom in factor),
                )
                for homomorphism in backend.iterate(factor, support, fixed)
            )
            for factor in factors
        )

    def multiplicity(self, bag: BagInstance) -> int:
        return prod(
            sum(_reference_weight(skeleton, bag) for _, skeleton in factor) for factor in self.factors
        )

    def evaluate(self, bag: BagInstance) -> AnswerBag:
        if self.answer is not None:
            return AnswerBag({self.answer: self.multiplicity(bag)})
        counts: dict = {}
        (factor,) = self.factors
        for answer, skeleton in factor:
            counts[answer] = counts.get(answer, 0) + _reference_weight(skeleton, bag)
        return AnswerBag(counts)


_terms = st.sampled_from(VARIABLES + QUERY_CONSTANTS)


@st.composite
def _atoms(draw):
    relation = draw(st.sampled_from(sorted(ARITIES)))
    return Atom(relation, tuple(draw(_terms) for _ in range(ARITIES[relation])))


@st.composite
def _queries(draw):
    body = draw(st.dictionaries(_atoms(), st.integers(1, 3), min_size=1, max_size=4))
    variables = sorted({term for atom in body for term in atom.variables()}, key=str)
    head = draw(st.lists(st.sampled_from(variables), max_size=3)) if variables else []
    return ConjunctiveQuery(head, body)


@st.composite
def _answers(draw, query: ConjunctiveQuery):
    """``None``, a tuple of the head's arity, or one of a wrong arity."""
    kind = draw(st.sampled_from(("none", "fits", "fits", "fits", "arity")))
    if kind == "none":
        return None
    arity = query.arity
    if kind == "arity":
        arity = draw(st.sampled_from([n for n in (arity - 1, arity + 1) if n >= 0]))
    return tuple(draw(st.sampled_from(ANSWER_CONSTANTS)) for _ in range(arity))


@st.composite
def _cases(draw):
    query = draw(_queries())
    answer = draw(_answers(query))
    universe = draw(st.lists(st.sampled_from(UNIVERSE), min_size=1, max_size=len(UNIVERSE), unique=True))
    # Multiplicity 0 keeps a fact in the universe but out of the bag's support.
    bags = draw(
        st.lists(
            st.lists(st.integers(0, 3), min_size=len(universe), max_size=len(universe)),
            min_size=1,
            max_size=3,
        )
    )
    return query, answer, universe, [BagInstance(dict(zip(universe, counts))) for counts in bags]


def _assert_agrees(query, answer, universe, bags) -> None:
    for backend in BACKENDS:
        with Session(backend=backend).activate():
            evaluator = BagBatchEvaluator(query, universe, answer=answer)
            reference = ReferenceEvaluator(query, universe, answer=answer)
        for bag in bags:
            assert evaluator.multiplicity(bag) == reference.multiplicity(bag), (backend, bag)
            assert evaluator.evaluate(bag) == reference.evaluate(bag), (backend, bag)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_evaluator_matches_the_reference(case):
    _assert_agrees(*case)


a, b, c, d = ANSWER_CONSTANTS
x, y, z = VARIABLES[:3]


def test_answer_fixed_factor_outside_the_support_contributes_zero():
    # The projection-free body is one factor the answer binds completely:
    # R(c, a) is outside the support, so the answer (c, a) has multiplicity 0
    # while (a, b) counts 2^3 · 3.
    query = ConjunctiveQuery((x, y), {Atom("R", (x, y)): 3, Atom("S", (x,)): 1})
    universe = [Atom("R", (a, b)), Atom("S", (a,)), Atom("S", (c,))]
    bag = BagInstance({Atom("R", (a, b)): 2, Atom("S", (a,)): 3, Atom("S", (c,)): 5})
    for answer, expected in (((a, b), 24), ((c, a), 0), ((d, a), 0)):
        assert BagBatchEvaluator(query, universe, answer=answer).multiplicity(bag) == expected
        _assert_agrees(query, answer, universe, [bag])


def test_repeated_head_variable_and_constants():
    # q(x, x) <- R^2(x, a), R(x, z), S(z): the answer (b, b) fits, (a, b) does
    # not; the factor of z goes through the engine, the fixed atom R(x, a)
    # joins it.
    query = ConjunctiveQuery(
        (x, x), {Atom("R", (x, a)): 2, Atom("R", (x, z)): 1, Atom("S", (z,)): 1}
    )
    universe = list(UNIVERSE)
    bag = BagInstance({fact: 2 if fact.relation == "R" else 0 for fact in universe})
    assert BagBatchEvaluator(query, universe, answer=(a, b)).multiplicity(bag) == 0
    for answer in ((b, b), (a, b), (b,), None):
        _assert_agrees(query, answer, universe, [bag, BagInstance.uniform(universe, 3)])
