"""Unit tests for the batch entry points (shared-plan sweeps)."""

import pytest

from repro.core.probe_tuples import iter_probe_tuples
from repro.engine import (
    BagBatchEvaluator,
    ContainmentMappingBatcher,
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
from repro.relational.substitutions import Substitution
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


class TestFactors:
    def test_factors_split_on_non_head_variables(self):
        # Factors and their atoms follow body_atoms() order.
        containing = parse_cq("q(x) <- S(a, x), R(x, y), R(y, w), R^2(x, z), S(a, a), T(z)")
        factors = ContainmentMappingBatcher(containing).factors
        assert [[str(atom) for atom in factor] for factor in factors] == [
            ["R(x, y)", "R(y, w)", "S(a, a)", "S(a, x)"],
            ["R(x, z)", "T(z)"],
        ]

    def test_a_body_without_existential_variables_is_one_factor(self):
        containing = parse_cq("q(x, y) <- R(x, y), S(y, a)")
        assert ContainmentMappingBatcher(containing).factors == (containing.body_atoms(),)

    def test_a_later_atom_joins_two_earlier_components(self):
        containing = parse_cq("q(x) <- R(x, y), R(x, z), S(y, z), R(x, w)")
        factors = ContainmentMappingBatcher(containing).factors
        assert [len(factor) for factor in factors] == [1, 3]

    @pytest.mark.parametrize("backend", ["naive", "interned"])
    def test_factor_mappings_multiply_to_the_full_enumeration(self, backend):
        containee = parse_cq("q1(x) <- R(x, a), R(x, b), S(a, b), S(b, b)")
        containing = parse_cq("q2(x) <- R(x, y), S(y, v), R(x, z), S(z, b), R(x, x1)")
        probe = next(iter_probe_tuples(containee))
        grounded = containee.ground(probe)
        batcher = ContainmentMappingBatcher(containing)
        with Session(backend=backend).activate():
            full = batcher.mappings(grounded, probe)
            parts = [batcher.mappings(grounded, probe, index) for index in range(3)]
        assert len(batcher.factors) == 3
        assert [len(part) for part in parts] == [2, 2, 2] and len(full) == 8
        products = {
            Substitution({**left, **middle, **right})
            for left in parts[0]
            for middle in parts[1]
            for right in parts[2]
        }
        assert products == set(full)


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
