"""Unit tests for homomorphism and containment-mapping enumeration."""

import pytest

from repro.engine import BagBatchEvaluator, ContainmentMappingBatcher, get_backend
from repro.evaluation.bag_evaluation import bag_multiplicity
from repro.evaluation.bag_set_evaluation import bag_set_multiplicity
from repro.evaluation.homomorphisms import containment_mappings, query_homomorphisms
from repro.queries.parser import parse_cq
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance, SetInstance
from repro.relational.terms import Constant, Variable
from repro.workloads.paper_examples import section2_instance, section2_query

x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b, c = Constant("a"), Constant("b"), Constant("c")


@pytest.fixture(params=["naive", "interned"])
def backend(request):
    return get_backend(request.param)


class TestHomomorphisms:
    def test_single_atom_matches_every_fact(self, backend):
        target = [Atom("R", (a, b)), Atom("R", (b, c))]
        assert backend.count([Atom("R", (x, y))], target) == 2

    def test_repeated_variable_restricts_matches(self, backend):
        target = [Atom("R", (a, b)), Atom("R", (b, b))]
        found = list(backend.iterate([Atom("R", (x, x))], target))
        assert len(found) == 1
        assert found[0].apply_term(x) == b

    def test_constants_in_source_must_match(self, backend):
        target = [Atom("R", (a, b)), Atom("R", (b, c))]
        assert backend.count([Atom("R", (a, x))], target) == 1
        assert backend.count([Atom("R", (c, x))], target) == 0

    def test_join_across_atoms(self, backend):
        target = [Atom("R", (a, b)), Atom("R", (b, c)), Atom("R", (a, c))]
        chain = [Atom("R", (x, y)), Atom("R", (y, z))]
        images = {
            (h.apply_term(x), h.apply_term(y), h.apply_term(z))
            for h in backend.iterate(chain, target)
        }
        assert images == {(a, b, c)}

    def test_fixed_bindings_are_honoured(self, backend):
        target = [Atom("R", (a, b)), Atom("R", (b, c))]
        found = list(backend.iterate([Atom("R", (x, y))], target, fixed={x: b}))
        assert len(found) == 1
        assert found[0].apply_term(y) == c

    def test_inconsistent_fixed_bindings_give_no_results(self, backend):
        target = [Atom("R", (a, b))]
        assert not list(backend.iterate([Atom("R", (x, y))], target, fixed={x: c}))

    def test_has_homomorphism(self, backend):
        target = [Atom("R", (a, b))]
        assert backend.exists([Atom("R", (x, y))], target)
        assert not backend.exists([Atom("S", (x,))], target)

    def test_target_atoms_may_contain_variables(self, backend):
        # Containment-mapping style: map into a body with variables.
        target = [Atom("R", (x, y))]
        found = list(backend.iterate([Atom("R", (z, z))], target))
        assert not found  # z would need to equal both x and y
        found = list(backend.iterate([Atom("R", (z, y))], target))
        assert len(found) == 1

    def test_relation_names_must_match(self, backend):
        assert backend.count([Atom("R", (x,))], [Atom("S", (a,))]) == 0

    def test_arity_must_match(self, backend):
        assert backend.count([Atom("R", (x,))], [Atom("R", (a, b))]) == 0


class TestQueryHomomorphisms:
    def test_paper_example_has_four_homomorphisms(self):
        # The Section 2 analysis lists h1..h4: two per answer tuple.
        assert sum(1 for _ in query_homomorphisms(section2_query(), section2_instance())) == 4

    def test_answer_restriction(self):
        c1, c2, c5 = Constant("c1"), Constant("c2"), Constant("c5")
        homs = list(
            query_homomorphisms(section2_query(), section2_instance(), answer=(c1, c2))
        )
        assert len(homs) == 2
        homs = list(
            query_homomorphisms(section2_query(), section2_instance(), answer=(c1, c5))
        )
        assert len(homs) == 2

    def test_impossible_answer_gives_no_homomorphisms(self):
        c1 = Constant("c1")
        assert not list(
            query_homomorphisms(section2_query(), section2_instance(), answer=(c1, c1))
        )

    def test_empty_instance(self):
        query = parse_cq("q(x) <- R(x, y)")
        assert not list(query_homomorphisms(query, SetInstance()))


#: Every answer-pinned entry point, as ``(query, bag, answer) -> count``.
PINNED_ANSWER_COUNTS = {
    "query_homomorphisms": lambda query, bag, answer: sum(
        1 for _ in query_homomorphisms(query, bag.support(), answer=answer)
    ),
    "bag_multiplicity": bag_multiplicity,
    "bag_set_multiplicity": lambda query, bag, answer: bag_set_multiplicity(
        query, bag.support(), answer
    ),
    "BagBatchEvaluator": lambda query, bag, answer: BagBatchEvaluator(
        query, bag.support().facts, answer=answer
    ).multiplicity(bag),
}


@pytest.mark.parametrize("answer", [(a,), (a, b, b)], ids=["short", "long"])
@pytest.mark.parametrize("entry", sorted(PINNED_ANSWER_COUNTS))
def test_an_answer_of_the_wrong_arity_counts_zero(entry, answer):
    # A longer tuple must not be truncated onto the head: (a, b, b) is not
    # an answer of a binary query even though (a, b) is.
    count = PINNED_ANSWER_COUNTS[entry]
    query = parse_cq("q(x, y) <- R(x, y)")
    bag = BagInstance({Atom("R", (a, b)): 3})
    assert count(query, bag, (a, b)) > 0
    assert count(query, bag, answer) == 0


class TestContainmentMappings:
    def test_identity_between_syntactically_equal_queries(self):
        q1 = parse_cq("q1(x1, x2) <- R^2(x1, x2), P^3(x2, x2)")
        q2 = parse_cq("q2(x1, x2) <- R^3(x1, x2), P^3(x2, x2)")
        assert len(list(containment_mappings(q1, q2))) == 1
        assert len(list(containment_mappings(q2, q1))) == 1

    def test_paper_section2_mapping_counts(self):
        q1 = parse_cq("q1(x1, x2) <- R^2(x1, x2), P^3(x2, x2)")
        q3 = parse_cq("q3(x1, x2) <- R^2(x1, y1), R(x1, y2), P^2(y2, y3), P(x2, y4)")
        # q3 maps into q1 in exactly one way (all existentials to x2)...
        assert len(list(containment_mappings(q3, q1))) == 1
        # ...but q1 does not map into q3 at all.
        assert not list(containment_mappings(q1, q3))

    def test_arity_mismatch_gives_no_mappings(self):
        q1 = parse_cq("q1(x) <- R(x, x)")
        q2 = parse_cq("q2(x, y) <- R(x, y)")
        assert not list(containment_mappings(q2, q1))

    def test_mappings_into_grounded_query(self):
        containee = parse_cq("q1(x1, x2) <- R^2(x1, x2), R(c1, x2), R^3(x1, c2)")
        containing = parse_cq("q2(x1, x2) <- R^3(x1, x2), R^2(x1, y1), R^2(y2, y1)")
        from repro.core.probe_tuples import most_general_probe_tuple

        probe = most_general_probe_tuple(containee)
        grounded = containee.ground(probe)
        mappings = ContainmentMappingBatcher(containing).mappings(grounded, probe)
        # The paper lists exactly three containment mappings h1, h2, h3.
        assert len(mappings) == 3
