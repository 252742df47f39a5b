"""Unit tests for the brute-force refuters."""

import random
from itertools import product

import pytest

from repro.baselines.refuters import _bags_over, bounded_bag_refuter, check_bag, random_bag_refuter
from repro.core.probe_tuples import iter_probe_tuples, most_general_probe_tuple
from repro.evaluation.bag_evaluation import bag_multiplicity
from repro.exceptions import NotProjectionFreeError
from repro.queries.parser import parse_cq
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance
from repro.relational.terms import CanonicalConstant
from repro.workloads.paper_examples import section2_q1, section2_q2


class TestCheckBag:
    def test_detects_a_known_violation(self):
        containee, containing = section2_q2(), section2_q1()
        probe = most_general_probe_tuple(containee)
        bag = BagInstance(
            {
                Atom("R", (CanonicalConstant("x1"), CanonicalConstant("x2"))): 2,
                Atom("P", (CanonicalConstant("x2"), CanonicalConstant("x2"))): 1,
            }
        )
        violation = check_bag(containee, containing, probe, bag)
        assert violation is not None
        assert violation.containee_multiplicity == 8
        assert violation.containing_multiplicity == 4

    def test_returns_none_when_no_violation(self):
        containee, containing = section2_q1(), section2_q2()
        probe = most_general_probe_tuple(containee)
        bag = BagInstance(
            {
                Atom("R", (CanonicalConstant("x1"), CanonicalConstant("x2"))): 2,
                Atom("P", (CanonicalConstant("x2"), CanonicalConstant("x2"))): 1,
            }
        )
        assert check_bag(containee, containing, probe, bag) is None


class TestBoundedRefuter:
    def test_finds_the_paper_counterexample(self):
        outcome = bounded_bag_refuter(section2_q2(), section2_q1(), max_multiplicity=2)
        assert outcome.refuted
        assert outcome.counterexample is not None
        assert outcome.counterexample.verify(section2_q2(), section2_q1())

    def test_does_not_refute_a_true_containment(self):
        outcome = bounded_bag_refuter(section2_q1(), section2_q2(), max_multiplicity=3)
        assert not outcome.refuted
        assert outcome.bags_checked == 3**2

    def test_include_zero_extends_the_search_space(self):
        with_zero = bounded_bag_refuter(
            section2_q1(), section2_q2(), max_multiplicity=2, include_zero=True
        )
        without_zero = bounded_bag_refuter(section2_q1(), section2_q2(), max_multiplicity=2)
        assert with_zero.bags_checked == 3**2 - 1
        assert without_zero.bags_checked == 2**2

    def test_all_probes_mode(self):
        containee = parse_cq("q(x) <- R(x, a)")
        containing = parse_cq("q(x) <- R(x, a), R(x, b)")
        outcome = bounded_bag_refuter(containee, containing, max_multiplicity=1, all_probes=True)
        assert outcome.refuted

    def test_requires_projection_free_containee(self):
        with pytest.raises(NotProjectionFreeError):
            bounded_bag_refuter(parse_cq("q(x) <- R(x, y)"), parse_cq("q(x) <- R(x, x)"))

    def test_incompleteness_within_a_small_bound(self):
        """The violation of q2 ⋢b q1 from Section 2 needs a fact multiplicity of
        at least 2, so a refuter capped at multiplicity 1 misses it — exactly
        the incompleteness the exact procedure does not suffer from."""
        outcome = bounded_bag_refuter(section2_q2(), section2_q1(), max_multiplicity=1)
        assert not outcome.refuted


class TestRandomRefuter:
    def test_finds_an_easy_violation(self):
        outcome = random_bag_refuter(
            section2_q2(), section2_q1(), trials=200, max_multiplicity=4, seed=7
        )
        assert outcome.refuted
        assert outcome.counterexample is not None
        assert outcome.counterexample.verify(section2_q2(), section2_q1())

    def test_never_refutes_a_true_containment(self):
        outcome = random_bag_refuter(
            section2_q1(), section2_q2(), trials=100, max_multiplicity=5, seed=11
        )
        assert not outcome.refuted
        assert outcome.bags_checked == 100

    def test_is_deterministic_for_a_fixed_seed(self):
        first = random_bag_refuter(section2_q2(), section2_q1(), trials=50, seed=3)
        second = random_bag_refuter(section2_q2(), section2_q1(), trials=50, seed=3)
        assert first.refuted == second.refuted
        assert first.bags_checked == second.bags_checked


def _reference_search(containee, containing, probes, bags_at):
    """The refuters' search with every bag built through the checking constructor."""
    checked = 0
    for probe in probes:
        atoms = containee.ground(probe).body_atoms()
        for values in bags_at(len(atoms)):
            checked += 1
            bag = BagInstance(dict(zip(atoms, values)))
            left = bag_multiplicity(containee, bag, probe)
            right = bag_multiplicity(containing, bag, probe)
            if left > right:
                return (True, checked, tuple(probe), bag, left, right)
    return (False, checked, None, None, None, None)


def _face(outcome):
    violation = outcome.counterexample
    if violation is None:
        return (outcome.refuted, outcome.bags_checked, None, None, None, None)
    return (
        outcome.refuted,
        outcome.bags_checked,
        violation.probe,
        violation.bag,
        violation.containee_multiplicity,
        violation.containing_multiplicity,
    )


#: E22's star pair (contained, so the search runs out) and the Section-2
#: pair in both directions (contained, and refuted by the paper's bag).
STAR = (
    parse_cq("q1(x, y) <- R(x, y), S(y, x), T(x, x), R(y, y)"),
    parse_cq("q2(x, y) <- R^2(x, y), S(y, x), T(x, z), R(y, w)"),
)
PAIRS = {
    "star": lambda: STAR,
    "section2": lambda: (section2_q1(), section2_q2()),
    "section2-reversed": lambda: (section2_q2(), section2_q1()),
}


class TestBagsBuiltOverCheckedFacts:
    """The refuters check the grounded facts once per probe, not once per bag."""

    @pytest.mark.parametrize("include_zero", [False, True])
    @pytest.mark.parametrize("all_probes", [False, True])
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_bounded_refuter_matches_constructor_built_bags(self, pair, all_probes, include_zero):
        containee, containing = PAIRS[pair]()
        lowest = 0 if include_zero else 1

        def bags_at(width):
            for values in product(range(lowest, 4), repeat=width):
                if any(values):
                    yield values

        probes = (
            list(iter_probe_tuples(containee))
            if all_probes
            else [most_general_probe_tuple(containee)]
        )
        expected = _reference_search(containee, containing, probes, bags_at)
        outcome = bounded_bag_refuter(
            containee, containing, 3, all_probes=all_probes, include_zero=include_zero
        )
        assert _face(outcome) == expected

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_random_refuter_matches_constructor_built_bags(self, pair, seed):
        containee, containing = PAIRS[pair]()
        rng = random.Random(seed)

        def bags_at(width):
            for _ in range(200):
                yield [rng.randint(1, 6) for _ in range(width)]

        probes = [most_general_probe_tuple(containee)]
        expected = _reference_search(containee, containing, probes, bags_at)
        assert _face(random_bag_refuter(containee, containing, 200, 6, seed)) == expected

    def test_zero_multiplicities_are_dropped(self):
        atoms = section2_q1().ground(most_general_probe_tuple(section2_q1())).body_atoms()
        bags = list(_bags_over(atoms, 2, include_zero=True))
        assert len(bags) == 3 ** len(atoms) - 1
        for bag, values in zip(bags, (v for v in product(range(3), repeat=len(atoms)) if any(v))):
            reference = BagInstance(dict(zip(atoms, values)))
            assert bag == reference and hash(bag) == hash(reference)
            assert len(bag) == sum(1 for value in values if value)
            assert all(count > 0 for _, count in bag.items())

    def test_facts_are_checked_once_per_probe(self, monkeypatch):
        from repro.baselines import refuters
        from repro.relational import instances

        calls = []

        def counting(check):
            def wrapper(atom):
                calls.append(atom)
                return check(atom)

            return wrapper

        monkeypatch.setattr(refuters, "_check_fact", counting(refuters._check_fact))
        monkeypatch.setattr(instances, "_check_fact", counting(instances._check_fact))
        outcome = bounded_bag_refuter(*STAR, max_multiplicity=3)
        assert not outcome.refuted and outcome.bags_checked == 3**4
        assert len(calls) == 4  # the four grounded facts, once
        calls.clear()
        assert not random_bag_refuter(*STAR, trials=50, seed=0).refuted
        assert len(calls) == 4
