"""Unit tests for set and bag instances."""

import pytest

from repro.exceptions import InstanceError
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance, SetInstance
from repro.relational.terms import Constant, Variable

a, b, c = Constant("a"), Constant("b"), Constant("c")
Rab = Atom("R", (a, b))
Rbc = Atom("R", (b, c))
Sa = Atom("S", (a,))


class TestSetInstance:
    def test_deduplicates_facts(self):
        instance = SetInstance([Rab, Rab, Rbc])
        assert len(instance) == 2

    def test_rejects_non_ground_atoms(self):
        with pytest.raises(InstanceError):
            SetInstance([Atom("R", (a, Variable("x")))])

    def test_rejects_non_atoms(self):
        with pytest.raises(InstanceError):
            SetInstance(["R(a,b)"])  # type: ignore[list-item]

    def test_active_domain(self):
        instance = SetInstance([Rab, Sa])
        assert instance.active_domain() == frozenset({a, b})

    def test_schema(self):
        instance = SetInstance([Rab, Sa])
        assert instance.schema().arity_of("R") == 2
        assert instance.schema().arity_of("S") == 1

    def test_relation_selection(self):
        instance = SetInstance([Rab, Rbc, Sa])
        assert instance.relation("R") == frozenset({Rab, Rbc})

    def test_union_and_subset(self):
        first = SetInstance([Rab])
        second = SetInstance([Rbc])
        union = first.union(second)
        assert first.issubset(union)
        assert second.issubset(union)
        assert not union.issubset(first)

    def test_restrict(self):
        instance = SetInstance([Rab, Rbc])
        assert instance.restrict([Rab]) == SetInstance([Rab])

    def test_equality_and_hash(self):
        assert SetInstance([Rab, Rbc]) == SetInstance([Rbc, Rab])
        assert hash(SetInstance([Rab])) == hash(SetInstance([Rab]))

    def test_membership(self):
        assert Rab in SetInstance([Rab])
        assert Rbc not in SetInstance([Rab])


class TestBagInstance:
    def test_zero_multiplicities_are_dropped(self):
        bag = BagInstance({Rab: 2, Rbc: 0})
        assert len(bag) == 1
        assert bag[Rbc] == 0

    def test_absent_facts_have_multiplicity_zero(self):
        assert BagInstance({Rab: 2})[Sa] == 0

    def test_negative_multiplicities_are_rejected(self):
        with pytest.raises(InstanceError):
            BagInstance({Rab: -1})

    def test_non_integer_multiplicities_are_rejected(self):
        with pytest.raises(InstanceError):
            BagInstance({Rab: 1.5})  # type: ignore[dict-item]
        with pytest.raises(InstanceError):
            BagInstance({Rab: True})  # type: ignore[dict-item]

    def test_rejects_non_ground_facts(self):
        with pytest.raises(InstanceError):
            BagInstance({Atom("R", (a, Variable("x"))): 1})

    def test_uniform(self):
        bag = BagInstance.uniform([Rab, Rbc], multiplicity=3)
        assert bag[Rab] == 3 and bag[Rbc] == 3

    def test_support_and_total(self):
        bag = BagInstance({Rab: 2, Rbc: 3})
        assert bag.support() == SetInstance([Rab, Rbc])
        assert bag.total_multiplicity() == 5

    def test_support_does_not_recheck_facts(self, monkeypatch):
        # The constructor checks every fact; the support reuses them as they are.
        bag = BagInstance({Rab: 2, Rbc: 0, Sa: 1})
        checked = []
        monkeypatch.setattr("repro.relational.instances._check_fact", checked.append)
        assert bag.support() == SetInstance._trusted(frozenset({Rab, Sa}))
        assert bag.support().facts == frozenset({Rab, Sa})
        assert checked == []

    @pytest.mark.parametrize(
        "fact", [Atom("R", (a, Variable("x"))), "R(a, b)", (a, b)], ids=["non-ground", "string", "tuple"]
    )
    @pytest.mark.parametrize("count", [0, 1])
    def test_malformed_facts_are_rejected_at_construction(self, fact, count):
        # Even a fact of multiplicity 0, which the bag drops, is checked.
        with pytest.raises(InstanceError):
            BagInstance({Rab: 1, fact: count})  # type: ignore[dict-item]

    def test_subbag_relation(self):
        small = BagInstance({Rab: 1})
        large = BagInstance({Rab: 2, Rbc: 1})
        assert small.is_subbag_of(large)
        assert not large.is_subbag_of(small)

    def test_subbag_is_reflexive(self):
        bag = BagInstance({Rab: 2})
        assert bag.is_subbag_of(bag)

    def test_restrict(self):
        bag = BagInstance({Rab: 2, Rbc: 3})
        assert bag.restrict([Rab]) == BagInstance({Rab: 2})

    def test_scale(self):
        assert BagInstance({Rab: 2}).scale(3) == BagInstance({Rab: 6})
        assert BagInstance({Rab: 2}).scale(0) == BagInstance({})

    def test_scale_rejects_negative_factor(self):
        with pytest.raises(InstanceError):
            BagInstance({Rab: 1}).scale(-1)

    def test_updated(self):
        bag = BagInstance({Rab: 2}).updated(Rbc, 4)
        assert bag[Rbc] == 4
        assert bag[Rab] == 2

    def test_merge_max_and_merge_sum(self):
        first = BagInstance({Rab: 2, Rbc: 1})
        second = BagInstance({Rab: 1, Sa: 5})
        assert first.merge_max(second) == BagInstance({Rab: 2, Rbc: 1, Sa: 5})
        assert first.merge_sum(second) == BagInstance({Rab: 3, Rbc: 1, Sa: 5})

    def test_equality_and_hash(self):
        assert BagInstance({Rab: 2}) == BagInstance({Rab: 2})
        assert hash(BagInstance({Rab: 2})) == hash(BagInstance({Rab: 2}))
        assert BagInstance({Rab: 2}) != BagInstance({Rab: 3})

    def test_active_domain(self):
        assert BagInstance({Rab: 1}).active_domain() == frozenset({a, b})
