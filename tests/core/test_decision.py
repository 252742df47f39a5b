"""Unit tests for the bag-containment decision procedures."""

import pytest

from repro.core.decision import (
    STRATEGIES,
    are_bag_equivalent,
    decide_bag_containment,
    decide_via_all_probes,
    decide_via_bounded_guess,
    decide_via_most_general_probe,
    is_bag_contained,
)
from repro.exceptions import ContainmentError, NotProjectionFreeError
from repro.queries.parser import parse_cq
from repro.workloads.paper_examples import (
    section2_q1,
    section2_q2,
    section2_q3,
    section3_containee,
    section3_containing,
)


class TestPaperSection2Examples:
    """The containment statements (1)-(3) listed at the end of Section 2."""

    def test_q1_is_bag_contained_in_q2(self):
        assert is_bag_contained(section2_q1(), section2_q2())

    def test_q2_is_not_bag_contained_in_q1(self):
        result = decide_bag_containment(section2_q2(), section2_q1())
        assert not result.contained
        assert result.counterexample is not None
        assert result.counterexample.verify(section2_q2(), section2_q1())

    def test_q1_and_q2_are_bag_contained_in_q3(self):
        assert is_bag_contained(section2_q1(), section2_q3())
        assert is_bag_contained(section2_q2(), section2_q3())

    def test_section3_pair_is_not_contained(self):
        result = decide_bag_containment(section3_containee(), section3_containing())
        assert not result.contained
        assert result.counterexample is not None
        assert result.counterexample.verify(section3_containee(), section3_containing())


class TestBasicLaws:
    def test_reflexivity(self):
        for query_text in [
            "q(x) <- R(x, x)",
            "q(x, y) <- R(x, y), S(y, x)",
            "q(x) <- R^3(x, x), S(x, a)",
        ]:
            query = parse_cq(query_text)
            assert is_bag_contained(query, query)

    def test_raising_a_multiplicity_on_the_containing_side_preserves_containment(self):
        containee = parse_cq("q(x, y) <- R(x, y)")
        containing = parse_cq("q(x, y) <- R^2(x, y)")
        assert is_bag_contained(containee, containing)
        assert not is_bag_contained(containing, containee)

    def test_extra_atom_on_the_containing_side_requires_it_to_be_implied(self):
        containee = parse_cq("q(x) <- R(x, x)")
        containing = parse_cq("q(x) <- R(x, x), S(x)")
        # S(x) can never be satisfied on the canonical instance of q1.
        assert not is_bag_contained(containee, containing)

    def test_existential_relaxation_is_contained(self):
        # Relaxing a join variable into an existential only increases the
        # multiplicity of every answer.
        containee = parse_cq("q(x, y) <- R(x, y), T(y)")
        containing = parse_cq("q(x, y) <- R(x, z), T(y)")
        assert is_bag_contained(containee, containing)
        assert not is_bag_contained(
            parse_cq("q(x, y) <- R^2(x, y), T(y)"), parse_cq("q(x, y) <- R(x, z), T(y)")
        )

    def test_existential_copy_dominates_a_duplicate_atom(self):
        # q2 multiplies by the full out-degree of x, which dominates the
        # single-fact square of q1 on every bag over q1's canonical instance;
        # Theorem 5.3 therefore declares the containment to hold.
        containee = parse_cq("q(x, y) <- R^2(x, y)")
        containing = parse_cq("q(x, y) <- R(x, y), R(x, z)")
        assert is_bag_contained(containee, containing)

    def test_arity_mismatch_is_never_contained(self):
        containee = parse_cq("q(x, y) <- R(x, y)")
        containing = parse_cq("q(x) <- R(x, x)")
        result = decide_bag_containment(containee, containing)
        assert not result.contained
        assert result.counterexample is not None

    def test_repeated_head_variable_in_the_containing_query(self):
        containee = parse_cq("q(x, y) <- R(x, y)")
        containing = parse_cq("q(x, x) <- R(x, x)")
        assert not is_bag_contained(containee, containing)

    def test_containee_must_be_projection_free(self):
        with pytest.raises(NotProjectionFreeError):
            decide_bag_containment(parse_cq("q(x) <- R(x, y)"), parse_cq("q(x) <- R(x, x)"))

    def test_unknown_strategy_is_rejected(self):
        with pytest.raises(ContainmentError):
            decide_bag_containment(
                parse_cq("q(x) <- R(x, x)"), parse_cq("q(x) <- R(x, x)"), strategy="magic"
            )

    def test_bag_containment_implies_set_containment(self):
        from repro.containment.set_containment import is_set_contained

        pairs = [
            (section2_q1(), section2_q2()),
            (section2_q1(), section2_q3()),
            (parse_cq("q(x, y) <- R(x, y), T(y)"), parse_cq("q(x, y) <- R(x, z), T(y)")),
        ]
        for containee, containing in pairs:
            assert is_bag_contained(containee, containing)
            assert is_set_contained(containee, containing)


class TestEquivalence:
    def test_identical_queries_are_equivalent(self):
        q = parse_cq("q(x) <- R^2(x, x), S(x, a)")
        assert are_bag_equivalent(q, q)

    def test_set_equivalent_queries_need_not_be_bag_equivalent(self):
        assert not are_bag_equivalent(section2_q1(), section2_q2())

    def test_atom_order_is_irrelevant(self):
        first = parse_cq("q(x, y) <- R(x, y), S(y)")
        second = parse_cq("q(x, y) <- S(y), R(x, y)")
        assert are_bag_equivalent(first, second)


class TestStrategies:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_strategies_agree_on_small_pairs(self, strategy):
        pairs = [
            (section2_q1(), section2_q2(), True),
            (section2_q2(), section2_q1(), False),
            (parse_cq("q(x) <- R(x, x)"), parse_cq("q(x) <- R(x, x), R(x, y)"), True),
            (parse_cq("q(x) <- R(x, a)"), parse_cq("q(x) <- R(x, y)"), True),
            (parse_cq("q(x) <- R(x, a)"), parse_cq("q(x) <- R(x, a), R(x, b)"), False),
        ]
        for containee, containing, expected in pairs:
            result = decide_bag_containment(containee, containing, strategy=strategy)
            assert result.contained == expected, (strategy, str(containee), str(containing))
            assert result.strategy == strategy

    def test_lp_fast_path_agrees_with_exact(self):
        pairs = [
            (section2_q1(), section2_q2()),
            (section2_q2(), section2_q1()),
            (section3_containee(), section3_containing()),
        ]
        for containee, containing in pairs:
            exact = decide_via_most_general_probe(containee, containing, use_lp=False)
            fast = decide_via_most_general_probe(containee, containing, use_lp=True)
            assert exact.contained == fast.contained

    def test_all_probes_path_returns_one_encoding_per_probe_on_positive_instances(self):
        containee = parse_cq("q(x) <- R(x, a)")
        containing = parse_cq("q(x) <- R(x, y)")
        result = decide_via_all_probes(containee, containing)
        assert result.contained
        # Probe domain is {x̂, a}: two probe tuples, hence two encodings.
        assert len(result.encodings) == 2

    def test_bounded_guess_enumeration_cap(self):
        containee = section3_containee()
        containing = section3_containing()
        with pytest.raises(ContainmentError):
            decide_via_bounded_guess(containee, containing, max_candidates=10)

    def test_bounded_guess_with_explicit_bound_finds_the_violation(self):
        result = decide_via_bounded_guess(section2_q2(), section2_q1(), bound=4)
        assert not result.contained
        assert result.counterexample is not None


class TestResultObject:
    def test_positive_result_contains_the_encoding_and_decision(self):
        result = decide_bag_containment(section2_q1(), section2_q2())
        assert result.contained
        assert len(result.encodings) == 1
        assert len(result.mpi_decisions) == 1
        assert not result.mpi_decisions[0].solvable
        assert result.counterexample is None
        assert "⊑b" in result.explain()

    def test_negative_result_is_verified(self):
        result = decide_bag_containment(section2_q2(), section2_q1())
        assert result.verified
        assert result.failing_probe is not None
        assert "⋢b" in result.explain()
        assert "counterexample" in result.explain()


#: One pair per way a probe walk ends.
_SHAPE_PAIRS = {
    "non-unifiable": ("q1(x, y) <- R(x, y)", "q2(x, x) <- R(x, x)"),
    "refuted": ("q1(x, y) <- R^2(x, y)", "q2(x, y) <- R(x, y)"),
    "contained": ("q1(x, y) <- R(x, y)", "q2(x, y) <- R(x, y), R(x, z)"),
}

_NOT_UNIFIABLE = "probe tuple (^x, ^y) is not unifiable with the containing head"


class TestReasonsAndShapes:
    """Each strategy's exact reason and result shape, per way the walk ends.

    Columns: reason, ``len(encodings)``, ``len(mpi_decisions)`` and the
    failing probe.  A refutation keeps only the failing probe's encoding
    (and its solver decision, if a solver ran); containment keeps every
    probe inspected.
    """

    @pytest.mark.parametrize(
        "strategy, kind, reason, encodings, decisions, failing_probe",
        [
            (
                "most-general",
                "non-unifiable",
                "the most-general probe tuple is not unifiable with the head of the containing query",
                1,
                0,
                ("^x", "^y"),
            ),
            (
                "most-general",
                "refuted",
                "the associated monomial-polynomial inequality admits a Diophantine solution",
                1,
                1,
                ("^x", "^y"),
            ),
            (
                "most-general",
                "contained",
                "the associated monomial-polynomial inequality has no Diophantine solution",
                1,
                1,
                None,
            ),
            ("all-probes", "non-unifiable", _NOT_UNIFIABLE, 1, 0, ("^x", "^y")),
            (
                "all-probes",
                "refuted",
                "the inequality at probe tuple (^x, ^x) admits a Diophantine solution",
                1,
                1,
                ("^x", "^x"),
            ),
            (
                "all-probes",
                "contained",
                "no probe tuple yields a solvable monomial-polynomial inequality",
                4,
                4,
                None,
            ),
            ("bounded-guess", "non-unifiable", _NOT_UNIFIABLE, 1, 0, ("^x", "^y")),
            (
                "bounded-guess",
                "refuted",
                "the bounded vector (1,) violates every containment-mapping inequality "
                "at probe tuple (^x, ^x)",
                1,
                0,
                ("^x", "^x"),
            ),
            (
                "bounded-guess",
                "contained",
                "no bounded natural vector violates the containment-mapping inequalities",
                4,
                0,
                None,
            ),
        ],
    )
    def test_reason_and_shape(self, strategy, kind, reason, encodings, decisions, failing_probe):
        containee, containing = (parse_cq(text) for text in _SHAPE_PAIRS[kind])
        result = decide_bag_containment(containee, containing, strategy=strategy)
        assert result.contained == (kind == "contained")
        assert result.strategy == strategy
        assert result.reason == reason
        assert len(result.encodings) == encodings
        assert len(result.mpi_decisions) == decisions
        probe = result.failing_probe
        assert (None if probe is None else tuple(str(term) for term in probe)) == failing_probe
        assert result.verified == (kind != "contained")
        if probe is not None:
            assert result.encodings[0].probe == probe
