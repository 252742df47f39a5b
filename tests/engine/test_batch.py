"""Unit tests for the query-level engine classes (batcher and bag evaluator)."""

import pytest

from repro.core.probe_tuples import iter_probe_tuples
from repro.engine import BagBatchEvaluator, ContainmentMappingBatcher, get_backend
from repro.engine.batch import head_fixing
from repro.evaluation.bag_evaluation import AnswerBag, bag_multiplicity, evaluate_bag
from repro.queries.parser import parse_cq
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance
from repro.relational.substitutions import Substitution
from repro.relational.terms import Constant, Variable
from repro.session import Session
from repro.workloads.scale import wide_star_pair

x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b, c = Constant("a"), Constant("b"), Constant("c")


class TestHeadFixing:
    def test_repeated_head_variables_must_agree(self):
        assert head_fixing((x, x), (a, a)) == {x: a}
        assert head_fixing((x, x), (a, b)) is None

    def test_heads_of_different_lengths_do_not_unify(self):
        assert head_fixing((x, y), (a,)) is None
        assert head_fixing((x, y), (a, b, c)) is None


class TestRepeatedCounts:
    TARGET = [Atom("R", (a, b)), Atom("R", (a, c)), Atom("R", (b, c))]

    @pytest.mark.parametrize("backend", ["naive", "interned"])
    def test_one_count_per_fixed_binding(self, backend):
        source = [Atom("R", (x, y))]
        with Session(backend=backend).activate():
            counts = [get_backend(backend).count(source, self.TARGET, {x: v}) for v in (a, b, c)]
        assert counts == [2, 1, 0]


class TestContainmentMappingBatcher:
    def test_matches_the_naive_enumeration_per_probe(self):
        containee = parse_cq("q1(x1, x2) <- R^2(x1, x2), R(c1, x2), R^3(x1, c2)")
        containing = parse_cq("q2(x1, x2) <- R^3(x1, x2), R^2(x1, y1), R^2(y2, y1)")
        batcher = ContainmentMappingBatcher(containing)
        naive = get_backend("naive")
        probes = list(iter_probe_tuples(containee))
        assert len(probes) > 1
        for probe in probes:
            grounded = containee.ground(probe)
            fixed = head_fixing(containing.head, probe)
            expected = (
                set()
                if fixed is None
                else set(naive.iterate(containing.body_atoms(), grounded.body_atoms(), fixed))
            )
            assert set(batcher.mappings(grounded, probe)) == expected

    def test_arity_mismatch_gives_empty_mappings(self):
        containee = parse_cq("q1(x) <- R(x, x)")
        containing = parse_cq("q2(x, y) <- R(x, y)")
        probe = next(iter_probe_tuples(containee))
        assert ContainmentMappingBatcher(containing).mappings(containee.ground(probe), probe) == ()


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


class TestFactorClasses:
    def test_the_renamed_rays_of_a_wide_star_share_one_class(self):
        _, containing = wide_star_pair(3, 5, 2, 2)
        assert ContainmentMappingBatcher(containing).classes == (0, 1, 1, 1, 1)

    @pytest.mark.parametrize("backend", ["naive", "interned"])
    def test_one_encoding_enumerates_one_factor_per_class(self, backend):
        from repro.core.encoding import _encode_at_probe
        from repro.core.probe_tuples import most_general_probe_tuple

        containee, containing = wide_star_pair(3, 5, 2, 2)
        enumerated = []

        class Recording(ContainmentMappingBatcher):
            def mappings(self, grounded, probe, factor=None):
                enumerated.append(factor)
                return super().mappings(grounded, probe, factor)

        probe = most_general_probe_tuple(containee)
        with Session(backend=backend, memoize=False).activate():
            mpi = _encode_at_probe(containee, containing, probe, Recording(containing))
        assert enumerated == [0, 1]
        assert mpi.num_mappings == 3**5

    def test_one_encoding_compiles_one_plan_per_class(self):
        from repro.core.encoding import encode_most_general

        session = Session(memoize=False)
        with session.activate():
            encode_most_general(*wide_star_pair(3, 5, 2, 2))
        assert session.cache.plan_stats.misses == 2

    @pytest.mark.parametrize(
        "body, classes",
        [
            # Renamed multi-atom factors share; the head variable stays put.
            ("R(x, z1), S(z1, a), R(x, z2), S(z2, a), R(x, z3), S(z3, a)", (0, 1, 1)),
            # A multiplicity, a relation or a constant tells factors apart.
            ("R(x, z1), R(x, z2), R^2(x, z3), R(x, z4)", (0, 1, 2, 1)),
            ("R(x, z1), R(x, z2), S(x, z3), R(x, z4)", (0, 1, 1, 3)),
            ("R(x, z1), R(x, z2), S(z2, a), R(x, z3), S(z3, b)", (0, 1, 2)),
            # So do a head variable in place of an existential one and a
            # repeated existential variable in place of two.
            ("R(x, z1), R(x, z2), R(z2, x), R(x, z3), R(z3, z4)", (0, 1, 2)),
            ("R(x, z1), R(z2, z2), R(z3, z3), R(z4, z5)", (0, 1, 1, 3)),
            # Factor 0 holds the variable-free atom and represents no copy.
            ("S(a, a), R(x, z1), R(x, z2), R(x, z3)", (0, 1, 1)),
            # Below three factors nothing can share.
            ("R(x, z1), R(x, z2)", (0, 1)),
            # Renamed copies whose atoms sort differently in body order
            # (``R(u2, w2)`` before ``R(x, u2)``, but ``R(x, z1)`` before
            # ``R(z1, v1)``) still share.
            (
                "R(x, y1), R(x, z1), R(z1, v1), R(x, u2), R(u2, w2), "
                "R(x, z3), R(z3, v3), R(x, u4), R(u4, w4)",
                (0, 1, 2, 1, 1),
            ),
        ],
    )
    def test_classes_compare_up_to_renaming_existential_variables(self, body, classes):
        containing = parse_cq(f"q(x) <- {body}")
        assert ContainmentMappingBatcher(containing).classes == classes


class TestBagBatchEvaluator:
    QUERY = parse_cq("q(x) <- R(x, y), S(y)")
    FACTS = [Atom("R", (a, b)), Atom("R", (c, b)), Atom("S", (b,))]

    def bags(self):
        return [
            BagInstance({self.FACTS[0]: 2, self.FACTS[1]: 1, self.FACTS[2]: 3}),
            BagInstance({self.FACTS[0]: 1, self.FACTS[2]: 1}),  # support subset
            BagInstance({fact: 5 for fact in self.FACTS}),
        ]

    #: ``q^µ`` of each bag of :meth:`bags`, by hand: ``µ(R(x, b)) · µ(S(b))``.
    EXPECTED = [
        AnswerBag({(a,): 6, (c,): 3}),
        AnswerBag({(a,): 1}),
        AnswerBag({(a,): 25, (c,): 25}),
    ]

    def test_one_evaluator_serves_every_bag_over_the_universe(self):
        evaluator = BagBatchEvaluator(self.QUERY, self.FACTS)
        for bag, expected in zip(self.bags(), self.EXPECTED):
            assert evaluator.evaluate(bag) == expected == evaluate_bag(self.QUERY, bag)

    def test_multiplicity_matches_the_full_evaluation(self):
        evaluator = BagBatchEvaluator(self.QUERY, self.FACTS, answer=(a,))
        for bag, expected in zip(self.bags(), self.EXPECTED):
            assert evaluator.multiplicity(bag) == expected[(a,)]
            assert evaluator.evaluate(bag) == AnswerBag({(a,): expected[(a,)]})
            assert bag_multiplicity(self.QUERY, bag, (a,)) == expected[(a,)]

    def test_inconsistent_answer_means_zero(self):
        query = parse_cq("q(x, x) <- R(x, x)")
        evaluator = BagBatchEvaluator(query, [Atom("R", (a, a))], answer=(a, b))
        assert evaluator.multiplicity(BagInstance({Atom("R", (a, a)): 2})) == 0

    @pytest.mark.parametrize("backend", ["naive", "interned"])
    def test_a_pinned_answer_multiplies_the_factor_sums(self, backend):
        # Two existential rays over three leaves: 3 + 3 skeletons, 3 · 3
        # homomorphisms.  Each ray sums to 1 + 2 + 3 = 6; R(a, a) joins the
        # first factor and weighs 1^2.
        query = parse_cq("q(x) <- R^2(x, x), R(x, y), R(x, z)")
        leaves = [Atom("R", (a, a)), Atom("R", (a, b)), Atom("R", (a, c))]
        bag = BagInstance(dict(zip(leaves, (1, 2, 3))))
        with Session(backend=backend).activate():
            evaluator = BagBatchEvaluator(query, leaves, answer=(a,))
            whole = BagBatchEvaluator(query, leaves)
        assert evaluator.multiplicity(bag) == 36 == whole.evaluate(bag)[(a,)]
