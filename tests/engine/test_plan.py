"""Unit tests for interned plan compilation (join order, op streams, target indexes)."""

import pytest

from repro.engine.interned import atom_signature, compile_interned_plan, interned_count
from repro.engine.interning import InternedTarget, TermDictionary, pack_ids
from repro.exceptions import ReproError
from repro.relational.atoms import Atom
from repro.relational.terms import Constant, Variable

x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b, c = Constant("a"), Constant("b"), Constant("c")


def compile_plan(source, target=(), fixed_variables=()):
    """Compile *source* against a fresh dictionary; returns ``(plan, dictionary)``."""
    dictionary = TermDictionary()
    plan = compile_interned_plan(
        dictionary,
        InternedTarget(dictionary, target),
        source,
        frozenset(fixed_variables),
        {},
    )
    return plan, dictionary


def scheduled(plan):
    """Every compiled step, static filters first, in execution order."""
    return plan.static_steps + plan.steps


class TestCompileTemplate:
    def test_deduplicates_source_atoms(self):
        plan, _ = compile_plan([Atom("R", (x, y)), Atom("R", (x, y))])
        assert plan.num_steps == 1

    def test_every_source_atom_is_scheduled_once(self):
        source = [Atom("R", (x, y)), Atom("S", (y, z)), Atom("T", (z,))]
        plan, _ = compile_plan(source)
        assert sorted(str(step.atom) for step in scheduled(plan)) == sorted(
            str(atom) for atom in source
        )

    def test_fixed_variables_count_as_bound(self):
        plan, _ = compile_plan([Atom("R", (x, y))], [Atom("R", (a, b))], fixed_variables=[x])
        (step,) = scheduled(plan)
        assert atom_signature(step.atom, {x}) == (0,)
        assert step.key_ops == (plan.slot_of[x],)
        assert [plan.slot_variables[slot] for _, slot in step.new_ops] == [y]

    def test_constants_count_as_bound(self):
        plan, dictionary = compile_plan([Atom("R", (a, y))], [Atom("R", (a, b))])
        (step,) = scheduled(plan)
        assert atom_signature(step.atom, set()) == (0,)
        # Constants ride in the key stream as ``-1 - id``.
        assert step.key_ops == (-1 - dictionary.intern(a),)
        assert step.new_ops == ((1, plan.slot_of[y]),)

    def test_later_steps_see_earlier_bindings(self):
        # Whatever order is chosen for a chain, the second step must have the
        # shared variable in its probe key.
        plan, _ = compile_plan([Atom("R", (x, y)), Atom("R", (y, z))], [Atom("R", (a, b))])
        second = scheduled(plan)[1]
        assert second.key_ops, "the join variable of the second step should be bound"

    def test_fail_first_prefers_smaller_relations(self):
        target = [Atom("Big", (Constant(f"u{i}"), Constant(f"v{i}"))) for i in range(100)]
        target.append(Atom("Small", (a, b)))
        plan, _ = compile_plan([Atom("Big", (x, y)), Atom("Small", (x, y))], target)
        assert scheduled(plan)[0].atom.relation == "Small"

    def test_compilation_is_deterministic(self):
        source = [Atom("R", (x, y)), Atom("S", (y, z)), Atom("R", (z, x))]
        target = [Atom("R", (a, b)), Atom("R", (b, c)), Atom("S", (b, c))]
        first, _ = compile_plan(source, target)
        second, _ = compile_plan(source, target)
        assert [step.atom for step in scheduled(first)] == [
            step.atom for step in scheduled(second)
        ]
        assert first.describe() == second.describe()

    def test_describe_mentions_every_step(self):
        plan, _ = compile_plan([Atom("R", (x, y)), Atom("S", (y, z))])
        text = plan.describe()
        assert "step 0" in text and "step 1" in text


class TestTargetIndex:
    def test_buckets_by_relation_and_arity(self):
        target = InternedTarget(
            TermDictionary(), [Atom("R", (a, b)), Atom("R", (a,)), Atom("S", (b, c))]
        )
        assert len(target.rows("R", 2)) == 1
        assert len(target.rows("R", 1)) == 1
        assert len(target.rows("S", 2)) == 1
        assert len(target.rows("R", 3)) == 0

    def test_signature_lookup(self):
        dictionary = TermDictionary()
        target = InternedTarget(
            dictionary, [Atom("R", (a, b)), Atom("R", (a, c)), Atom("R", (b, c))]
        )
        index = target.group_index("R", 2, (0,))
        hits = index[dictionary.intern(a)]
        assert {dictionary.term(row[1]) for row in hits} == {b, c}
        assert index.get(dictionary.intern(c), ()) == ()

    def test_multi_position_signatures_use_packed_keys(self):
        dictionary = TermDictionary()
        target = InternedTarget(dictionary, [Atom("R", (a, b)), Atom("R", (b, a))])
        index = target.group_index("R", 2, (0, 1))
        ab = pack_ids([dictionary.intern(a), dictionary.intern(b)])
        ba = pack_ids([dictionary.intern(b), dictionary.intern(a)])
        assert len(index[ab]) == len(index[ba]) == 1
        assert index[ab] != index[ba]

    def test_empty_signature_returns_full_bucket(self):
        target = InternedTarget(TermDictionary(), [Atom("R", (a, b)), Atom("R", (b, c))])
        assert len(target.rows("R", 2)) == 2
        plan, _ = compile_plan([Atom("R", (x, y))], [Atom("R", (a, b)), Atom("R", (b, c))])
        (step,) = scheduled(plan)
        assert step.group is None and len(step.bucket) == 2

    def test_deduplicates_target_atoms(self):
        dictionary = TermDictionary()
        target = InternedTarget(dictionary, [Atom("R", (a, b)), Atom("R", (a, b))])
        assert len(target) == 1
        assert len(target.group_index("R", 2, (0,))[dictionary.intern(a)]) == 1

    def test_missing_bucket_indexes_to_nothing(self):
        target = InternedTarget(TermDictionary(), [Atom("R", (a, b))])
        assert target.group_index("S", 2, (0,)) == {}
        assert target.selectivity("S", 2, (0,)) == 0.0
        assert target.cost_estimate("S", 2, ()) == 0.0


class TestMatchPlan:
    def test_describe_includes_bound_positions(self):
        plan, _ = compile_plan([Atom("R", (x, y))], [Atom("R", (a, b))], fixed_variables=[x])
        assert "bound positions: 0" in plan.describe()

    def test_rejects_unplanned_fixed_bindings(self):
        plan, _ = compile_plan([Atom("R", (x, y))], [Atom("R", (a, b))])
        with pytest.raises(ReproError):
            plan.check_fixed({x: a})

    def test_accepts_planned_and_foreign_fixed_bindings(self):
        plan, _ = compile_plan([Atom("R", (x, y))], [Atom("R", (a, b))], fixed_variables=[x])
        plan.check_fixed({x: a})
        # Bindings for variables outside the source ride along harmlessly.
        plan.check_fixed({x: a, Variable("unrelated"): b})

    def test_rejects_missing_planned_fixed_bindings(self):
        plan, dictionary = compile_plan(
            [Atom("R", (x, y))], [Atom("R", (a, b))], fixed_variables=[x]
        )
        with pytest.raises(ReproError):
            interned_count(plan, dictionary)
