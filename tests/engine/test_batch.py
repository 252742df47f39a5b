"""Unit tests for the batch entry points (shared-plan sweeps)."""

import pytest

from repro.core.probe_tuples import iter_probe_tuples
from repro.engine import (
    BagBatchEvaluator,
    containment_mappings_many,
    count_many,
    evaluate_bag_many,
)
from repro.evaluation.bag_evaluation import bag_multiplicity, evaluate_bag
from repro.evaluation.homomorphisms import containment_mappings_to_ground
from repro.exceptions import ReproError
from repro.queries.parser import parse_cq
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance
from repro.relational.terms import Constant, Variable
from repro.session import Session

x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b, c = Constant("a"), Constant("b"), Constant("c")


class TestCountMany:
    TARGET = [Atom("R", (a, b)), Atom("R", (a, c)), Atom("R", (b, c))]

    def test_matches_individual_counts(self):
        source = [Atom("R", (x, y))]
        fixed_list = [{x: a}, {x: b}, {x: c}]
        counts = count_many(source, self.TARGET, fixed_list)
        assert counts == (2, 1, 0)

    def test_empty_batch(self):
        assert count_many([Atom("R", (x, y))], self.TARGET, []) == ()

    def test_rejects_heterogeneous_fixed_sets(self):
        with pytest.raises(ReproError):
            count_many([Atom("R", (x, y))], self.TARGET, [{x: a}, {y: b}])

    def test_naive_backend_path(self):
        source = [Atom("R", (x, y))]
        with Session(backend="naive").activate():
            counts = count_many(source, self.TARGET, [{x: a}, {x: b}])
        assert counts == (2, 1)


class TestContainmentMappingsMany:
    def test_matches_per_probe_enumeration(self):
        containee = parse_cq("q1(x1, x2) <- R^2(x1, x2), R(c1, x2), R^3(x1, c2)")
        containing = parse_cq("q2(x1, x2) <- R^3(x1, x2), R^2(x1, y1), R^2(y2, y1)")
        probes = list(iter_probe_tuples(containee))
        grounded = [(containee.ground(probe), probe) for probe in probes]
        batched = containment_mappings_many(containing, grounded)
        assert len(batched) == len(probes)
        for (grounded_query, probe), mappings in zip(grounded, batched):
            expected = sorted(
                repr(m) for m in containment_mappings_to_ground(containing, grounded_query, probe)
            )
            assert sorted(repr(m) for m in mappings) == expected

    def test_arity_mismatch_gives_empty_mappings(self):
        containee = parse_cq("q1(x) <- R(x, x)")
        containing = parse_cq("q2(x, y) <- R(x, y)")
        probe = next(iter_probe_tuples(containee))
        (mappings,) = containment_mappings_many(containing, [(containee.ground(probe), probe)])
        assert mappings == ()


class TestBagBatchEvaluator:
    QUERY = parse_cq("q(x) <- R(x, y), S(y)")
    FACTS = [Atom("R", (a, b)), Atom("R", (c, b)), Atom("S", (b,))]

    def bags(self):
        return [
            BagInstance({self.FACTS[0]: 2, self.FACTS[1]: 1, self.FACTS[2]: 3}),
            BagInstance({self.FACTS[0]: 1, self.FACTS[2]: 1}),  # support subset
            BagInstance({fact: 5 for fact in self.FACTS}),
        ]

    def test_evaluate_matches_reference(self):
        evaluator = BagBatchEvaluator(self.QUERY, self.FACTS)
        for bag in self.bags():
            assert evaluator.evaluate(bag) == evaluate_bag(self.QUERY, bag)

    def test_multiplicity_matches_reference(self):
        evaluator = BagBatchEvaluator(self.QUERY, self.FACTS, answer=(a,))
        for bag in self.bags():
            assert evaluator.multiplicity(bag) == bag_multiplicity(self.QUERY, bag, (a,))

    def test_arity_mismatch_means_zero(self):
        evaluator = BagBatchEvaluator(self.QUERY, self.FACTS, answer=(a, b))
        assert evaluator.num_homomorphisms == 0
        assert evaluator.multiplicity(self.bags()[0]) == 0

    def test_inconsistent_answer_means_zero(self):
        query = parse_cq("q(x, x) <- R(x, x)")
        evaluator = BagBatchEvaluator(query, [Atom("R", (a, a))], answer=(a, b))
        assert evaluator.multiplicity(BagInstance({Atom("R", (a, a)): 2})) == 0


class TestEvaluateBagMany:
    def test_matches_per_bag_evaluation(self):
        query = parse_cq("q(x) <- R(x, y), S(y)")
        r_ab, r_cb, s_b = Atom("R", (a, b)), Atom("R", (c, b)), Atom("S", (b,))
        bags = [
            BagInstance({r_ab: 2, s_b: 3}),
            BagInstance({r_cb: 1, s_b: 1}),
            BagInstance({r_ab: 1, r_cb: 4, s_b: 2}),
        ]
        batched = evaluate_bag_many(query, bags)
        assert len(batched) == len(bags)
        for bag, answers in zip(bags, batched):
            assert answers == evaluate_bag(query, bag)

    def test_empty_batch(self):
        assert evaluate_bag_many(parse_cq("q(x) <- R(x, y)"), []) == ()
