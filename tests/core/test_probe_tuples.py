"""Unit tests for probe tuples (Definition 3.1)."""

from itertools import product

from repro.core.probe_tuples import (
    canonical_probe_representative,
    is_probe_tuple,
    most_general_probe_tuple,
    probe_domain,
    probe_tuples,
    reduced_probe_tuples,
)
from repro.exceptions import UnificationError
from repro.queries.cq import ConjunctiveQuery
from repro.queries.parser import parse_cq
from repro.relational.atoms import Atom
from repro.relational.substitutions import unify_tuples
from repro.relational.terms import CanonicalConstant, Constant, Variable
from repro.workloads.paper_examples import section3_probe_example_query

x1_hat, x2_hat = CanonicalConstant("x1"), CanonicalConstant("x2")
c1, c2 = Constant("c1"), Constant("c2")


class TestPaperExample:
    def test_sixteen_probe_tuples(self):
        query = section3_probe_example_query()
        tuples = probe_tuples(query)
        assert len(tuples) == 16
        domain = {x1_hat, x2_hat, c1, c2}
        assert set(tuples) == {(a, b) for a in domain for b in domain}

    def test_ten_reduced_probe_tuples(self):
        query = section3_probe_example_query()
        reduced = set(reduced_probe_tuples(query))
        assert len(reduced) == 10
        # Every probe tuple must be isomorphic to exactly one representative.
        representatives = {canonical_probe_representative(probe) for probe in probe_tuples(query)}
        assert len(representatives) == 10

    def test_probe_domain(self):
        query = section3_probe_example_query()
        assert set(probe_domain(query)) == {x1_hat, x2_hat, c1, c2}


class TestMostGeneralProbeTuple:
    def test_is_the_canonical_head(self):
        query = parse_cq("q(x1, x2) <- R(x1, x2), R(c1, x2)")
        assert most_general_probe_tuple(query) == (x1_hat, x2_hat)

    def test_repeated_head_variables(self):
        query = parse_cq("q(x1, x1) <- R(x1, x1)")
        assert most_general_probe_tuple(query) == (x1_hat, x1_hat)

    def test_boolean_query_has_the_empty_probe(self):
        query = parse_cq("q() <- R(c1, c2)")
        assert most_general_probe_tuple(query) == ()
        assert probe_tuples(query) == ((),)

    def test_most_general_probe_is_a_probe_tuple(self):
        query = section3_probe_example_query()
        assert is_probe_tuple(query, most_general_probe_tuple(query))


class TestUnifiabilityFilter:
    def test_repeated_head_variables_restrict_probe_tuples(self):
        query = parse_cq("q(x1, x1) <- R(x1, c1)")
        tuples = probe_tuples(query)
        # Only pairs with equal components are unifiable with (x1, x1).
        assert all(first == second for first, second in tuples)
        assert (CanonicalConstant("x1"), CanonicalConstant("x1")) in tuples
        assert (c1, c1) in tuples
        assert len(tuples) == 2

    def test_is_probe_tuple_checks_domain_and_arity(self):
        query = parse_cq("q(x1) <- R(x1, c1)")
        assert is_probe_tuple(query, (c1,))
        assert not is_probe_tuple(query, (Constant("unknown"),))
        assert not is_probe_tuple(query, (c1, c1))


    def test_sequence_equals_the_filtered_product(self):
        # Every head of arity <= 4 over three variables, against the
        # brute-force filter of the full product: same tuples, same order.
        variables = tuple(Variable(name) for name in ("x", "y", "z"))

        def unifiable(head, candidate):
            try:
                unify_tuples(head, candidate)
            except UnificationError:
                return False
            return True

        for arity in range(5):
            for head in product(variables, repeat=arity):
                body = {Atom("R", (variable, c1)): 1 for variable in dict.fromkeys(head)}
                body[Atom("S", (Variable("w"), c2))] = 1
                query = ConjunctiveQuery(head, body)
                expected = tuple(
                    candidate
                    for candidate in product(probe_domain(query), repeat=arity)
                    if unifiable(head, candidate)
                )
                assert probe_tuples(query) == expected, head


class TestCanonicalRepresentative:
    def test_renaming_is_order_of_first_appearance(self):
        probe = (x2_hat, x1_hat, x2_hat, c1)
        representative = canonical_probe_representative(probe)
        assert representative == (
            CanonicalConstant("#1"),
            CanonicalConstant("#2"),
            CanonicalConstant("#1"),
            c1,
        )

    def test_isomorphic_tuples_share_a_representative(self):
        assert canonical_probe_representative((x1_hat, x2_hat)) == canonical_probe_representative(
            (x2_hat, x1_hat)
        )
        assert canonical_probe_representative((x1_hat, c1)) == canonical_probe_representative(
            (x2_hat, c1)
        )
        assert canonical_probe_representative((x1_hat, c1)) != canonical_probe_representative(
            (x1_hat, c2)
        )

    def test_probe_tuples_with_existential_variables_in_domain(self):
        # The probe domain uses *all* variables of the query, even for
        # non-projection-free queries (the canonical instance freezes them all).
        query = parse_cq("q(x1) <- R(x1, y1)")
        domain = set(probe_domain(query))
        assert CanonicalConstant("y1") in domain
        assert len(probe_tuples(query)) == 2
