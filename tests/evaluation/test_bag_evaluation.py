"""Unit tests for bag-semantics evaluation (Equation 2)."""

import pytest

from repro.evaluation.bag_evaluation import (
    AnswerBag,
    bag_multiplicity,
    evaluate_bag,
    evaluate_bag_ucq,
)
from repro.engine import get_backend
from repro.evaluation.homomorphisms import query_homomorphisms
from repro.queries.parser import parse_cq, parse_ucq
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance
from repro.relational.terms import Constant
from repro.session import Session
from repro.workloads.paper_examples import (
    section2_bag,
    section2_expected_answers,
    section2_query,
)
from repro.workloads.scale import mixed_pairs

a, b, c = Constant("a"), Constant("b"), Constant("c")
c1, c2, c5 = Constant("c1"), Constant("c2"), Constant("c5")


def reference_multiplicity(query, bag, answer):
    """Equation 2 as the paper writes it: the oracle for ``bag_multiplicity``.

    Every homomorphism into the support comes from the naive backend with
    no head binding; those that produce *answer* build the image query
    ``h(q)`` (Equation 1 merges collapsing atoms) and contribute the
    product over its distinct atoms.  Shares no code with the evaluator
    beyond the naive backend's search.
    """
    total = 0
    for homomorphism in get_backend("naive").iterate(query.body_atoms(), bag.support().facts):
        if homomorphism.apply_tuple(query.head) != tuple(answer):
            continue
        image = query.apply_substitution(homomorphism)
        contribution = 1
        for atom, exponent in image.body.items():
            contribution *= bag[atom] ** exponent
        total += contribution
    return total


class TestAnswerBag:
    def test_zero_counts_are_dropped(self):
        bag = AnswerBag({(a,): 0, (b,): 2})
        assert len(bag) == 1
        assert bag[(a,)] == 0
        assert bag[(b,)] == 2

    def test_subbag_relation(self):
        small = AnswerBag({(a,): 1})
        large = AnswerBag({(a,): 2, (b,): 1})
        assert small.is_subbag_of(large)
        assert not large.is_subbag_of(small)

    def test_violations(self):
        left = AnswerBag({(a,): 5, (b,): 1})
        right = AnswerBag({(a,): 2, (b,): 3})
        assert left.violations(right) == [((a,), 5, 2)]

    def test_add(self):
        combined = AnswerBag({(a,): 1}).add(AnswerBag({(a,): 2, (b,): 1}))
        assert combined[(a,)] == 3 and combined[(b,)] == 1

    def test_support_and_total(self):
        bag = AnswerBag({(a,): 2, (b,): 3})
        assert bag.support() == frozenset({(a,), (b,)})
        assert bag.total() == 5

    def test_equality(self):
        assert AnswerBag({(a,): 1}) == AnswerBag({(a,): 1, (b,): 0})


class TestPaperExample:
    def test_section2_answer_multiplicities(self):
        answers = evaluate_bag(section2_query(), section2_bag())
        expected = section2_expected_answers()
        assert answers[(c1, c2)] == expected[(c1, c2)] == 10
        assert answers[(c1, c5)] == expected[(c1, c5)] == 30
        assert answers.support() == frozenset(expected)

    def test_individual_multiplicity_matches_full_evaluation(self):
        assert bag_multiplicity(section2_query(), section2_bag(), (c1, c2)) == 10
        assert bag_multiplicity(section2_query(), section2_bag(), (c1, c5)) == 30
        assert bag_multiplicity(section2_query(), section2_bag(), (c1, c1)) == 0

    def test_the_reference_formula_agrees(self):
        query, bag = section2_query(), section2_bag()
        assert reference_multiplicity(query, bag, (c1, c2)) == 10
        assert reference_multiplicity(query, bag, (c1, c5)) == 30


class TestBasicProperties:
    def test_single_atom_query_returns_fact_multiplicities(self):
        bag = BagInstance({Atom("R", (a, b)): 4})
        query = parse_cq("q(x, y) <- R(x, y)")
        assert evaluate_bag(query, bag)[(a, b)] == 4

    def test_repeated_atom_raises_multiplicity_to_a_power(self):
        bag = BagInstance({Atom("R", (a, b)): 3})
        query = parse_cq("q(x, y) <- R^2(x, y)")
        assert evaluate_bag(query, bag)[(a, b)] == 9

    def test_projection_sums_over_existential_witnesses(self):
        bag = BagInstance({Atom("R", (a, b)): 2, Atom("R", (a, c)): 5})
        query = parse_cq("q(x) <- R(x, y)")
        assert evaluate_bag(query, bag)[(a,)] == 7

    def test_join_multiplies_multiplicities(self):
        bag = BagInstance({Atom("R", (a, b)): 2, Atom("S", (b, c)): 3})
        query = parse_cq("q(x, z) <- R(x, y), S(y, z)")
        assert evaluate_bag(query, bag)[(a, c)] == 6

    def test_boolean_query_counts_total(self):
        bag = BagInstance({Atom("R", (a, b)): 2, Atom("R", (b, c)): 3})
        query = parse_cq("q() <- R(x, y)")
        assert evaluate_bag(query, bag)[()] == 5

    def test_cartesian_product_of_disconnected_atoms(self):
        bag = BagInstance({Atom("R", (a, a)): 2, Atom("S", (b, b)): 3})
        query = parse_cq("q() <- R(x, x), S(y, y)")
        assert evaluate_bag(query, bag)[()] == 6

    def test_missing_fact_gives_zero(self):
        bag = BagInstance({Atom("R", (a, b)): 2})
        query = parse_cq("q(x) <- R(x, x)")
        assert len(evaluate_bag(query, bag)) == 0

    def test_uniform_bag_with_multiplicity_one_matches_homomorphism_count(self):
        bag = BagInstance({Atom("R", (a, b)): 1, Atom("R", (b, c)): 1, Atom("R", (a, c)): 1})
        query = parse_cq("q() <- R(x, y), R(y, z)")
        # Each pair of composable edges contributes 1; with multiplicity-1
        # facts the bag answer equals the number of homomorphisms.
        homs = sum(1 for _ in query_homomorphisms(query, bag.support()))
        assert evaluate_bag(query, bag)[()] == homs

    def test_arity_mismatch_in_bag_multiplicity_is_zero(self):
        # A tuple of the wrong arity is never an answer, so its multiplicity is 0.
        bag = BagInstance({Atom("R", (a, b)): 1})
        query = parse_cq("q(x, y) <- R(x, y)")
        assert bag_multiplicity(query, bag, (a,)) == 0


class TestUcqEvaluation:
    def test_disjunct_answers_are_summed(self):
        bag = BagInstance({Atom("R", (a, b)): 2, Atom("S", (a,)): 3})
        ucq = parse_ucq("q(x) <- R(x, y); q(x) <- S(x)")
        assert evaluate_bag_ucq(ucq, bag)[(a,)] == 5

    def test_repeated_disjuncts_double_the_count(self):
        bag = BagInstance({Atom("R", (a, b)): 2})
        ucq = parse_ucq("q(x) <- R(x, y); q(x) <- R(x, y)")
        assert evaluate_bag_ucq(ucq, bag)[(a,)] == 4


class TestAgainstTheReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_both_sides_of_every_mixed_certificate(self, seed):
        session = Session(memoize=False)
        certified = 0
        for _, (containee, containing) in mixed_pairs(40, seed=seed):
            certificate = session.decide(containee, containing).certificate
            if certificate is None:
                continue
            certified += 1
            bag, probe = certificate.bag, certificate.probe
            left = bag_multiplicity(containee, bag, probe)
            right = bag_multiplicity(containing, bag, probe)
            assert left == reference_multiplicity(containee, bag, probe)
            assert right == reference_multiplicity(containing, bag, probe)
            assert (left, right) == (
                certificate.containee_multiplicity,
                certificate.containing_multiplicity,
            )
        assert certified > 0
