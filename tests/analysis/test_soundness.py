"""Unit tests for the plan soundness verifier."""

import dataclasses

from repro.analysis.soundness import Violation, verify_plan
from repro.engine import EngineCache, create_backend
from repro.engine.interned import InternedStep
from repro.engine.interning import ID_BITS, TermDictionary
from repro.queries.parser import parse_cq
from repro.relational.terms import Variable


def plan_for(backend_name, source_text, target_text, fixed=frozenset()):
    backend = create_backend(backend_name, cache=EngineCache())
    source = parse_cq(source_text).body_atoms()
    target = parse_cq(target_text).body_atoms()
    plan = backend.plan(source, target, fixed)
    return backend, plan, source, target


SOURCE = "q() :- e(x,y), e(y,z), e(z,x), f(x,w)"
TARGET = "p() :- e('a','b'), e('b','c'), e('c','a'), e('a','a'), f('a','u'), f('b','v')"


class TestVerifyInternedPlan:
    def test_compiled_plan_is_clean(self):
        backend, plan, source, _ = plan_for("interned", SOURCE, TARGET)
        assert (
            verify_plan(
                plan,
                source_atoms=source,
                fixed_variables=frozenset(),
                dictionary=backend.dictionary,
            )
            == []
        )

    def test_accepts_query_objects_for_source(self):
        _, plan, _, _ = plan_for("interned", SOURCE, TARGET)
        assert verify_plan(plan, source_atoms=parse_cq(SOURCE)) == []

    def test_fixed_contract_mismatch_is_reported(self):
        _, plan, source, _ = plan_for("interned", SOURCE, TARGET)
        violations = verify_plan(
            plan, source_atoms=source, fixed_variables=frozenset({Variable("x")})
        )
        assert any(v.code == "fixed-mismatch" for v in violations)

    def test_wrong_source_atoms_break_the_permutation(self):
        _, plan, _, _ = plan_for("interned", SOURCE, TARGET)
        other = parse_cq("q() :- e(x,y)").body_atoms()
        violations = verify_plan(plan, source_atoms=other)
        assert any(v.code == "order-permutation" for v in violations)

    def test_unknown_plan_type_is_reported(self):
        violations = verify_plan(object())
        assert [v.code for v in violations] == ["unknown-plan"]

    def test_fixed_plan_with_static_filter_is_clean(self):
        fixed = frozenset({Variable("x")})
        backend, plan, source, _ = plan_for(
            "interned", "q(x) :- e(x,x), e(x,y)", TARGET, fixed
        )
        assert plan.static_steps  # e(x,x) hoists once x is fixed
        assert (
            verify_plan(
                plan,
                source_atoms=source,
                fixed_variables=fixed,
                dictionary=backend.dictionary,
            )
            == []
        )

    def test_reordered_steps_surface_unbound_reads(self):
        backend, plan, source, _ = plan_for(
            "interned", "q() :- e(x,y), e(y,z), e(z,w)", "p() :- e('a','b'), e('b','c')"
        )
        steps = list(plan.steps)
        assert len(steps) == 3
        tampered = dataclasses.replace(plan, steps=(steps[0], steps[2], steps[1]))
        codes = {
            v.code
            for v in verify_plan(
                tampered, source_atoms=source, dictionary=backend.dictionary
            )
        }
        assert "unbound-read" in codes or "signature-mismatch" in codes

    def test_wrong_constant_id_is_reported(self):
        backend, plan, source, _ = plan_for(
            "interned", "q() :- e(x,'a')", "p() :- e('a','a')"
        )
        step = plan.steps[0]
        constant_position = next(i for i, op in enumerate(step.key_ops) if op < 0)
        bad_ops = list(step.key_ops)
        bad_ops[constant_position] = bad_ops[constant_position] - 1  # off-by-one id
        # InternedStep uses __slots__, not a dataclass: rebuild it in place.
        type(step).__init__(
            step, step.atom, step.group, step.bucket, tuple(bad_ops), step.new_ops
        )
        violations = verify_plan(
            plan, source_atoms=source, dictionary=backend.dictionary
        )
        assert any(v.code == "signature-mismatch" for v in violations)

    def test_key_budget_flags_oversized_dictionary_window(self):
        # A dictionary whose capacity exceeds the ID_BITS pack window could
        # assign ids past the injectivity bound before its own guard fires.
        backend, plan, source, _ = plan_for("interned", SOURCE, TARGET)
        assert any(len(step.key_ops) >= 2 for step in plan.steps)
        roomy = TermDictionary(id_bits=ID_BITS + 1)
        for index in range(len(backend.dictionary)):
            roomy.intern(backend.dictionary.term(index))
        violations = verify_plan(plan, source_atoms=source, dictionary=roomy)
        assert any(v.code == "key-overflow" for v in violations)

    def test_violation_describe_mentions_code_and_subject(self):
        violation = Violation("unbound-read", "step 2", "slot 4 read before bound")
        text = violation.describe()
        assert "unbound-read" in text and "step 2" in text


def rebuilt(step, **changes):
    """A copy of an :class:`InternedStep` with some fields replaced."""
    fields = {
        name: getattr(step, name)
        for name in ("atom", "group", "bucket", "key_ops", "new_ops")
    }
    fields.update(changes)
    return InternedStep(**fields)


def codes_of(plan, source, dictionary=None, fixed_variables=None):
    return {
        v.code
        for v in verify_plan(
            plan,
            source_atoms=source,
            fixed_variables=fixed_variables,
            dictionary=dictionary,
        )
    }


class TestInternedMutations:
    """Each hand-corrupted plan must trip the check that guards its defect."""

    def test_slot_of_that_does_not_invert_the_layout(self):
        _, plan, source, _ = plan_for("interned", SOURCE, TARGET)
        slot_of = dict(plan.slot_of)
        first, second = plan.slot_variables[:2]
        slot_of[first], slot_of[second] = slot_of[second], slot_of[first]
        tampered = dataclasses.replace(plan, slot_of=slot_of)
        assert codes_of(tampered, source) == {"slot-layout"}

    def test_self_ids_must_cover_every_slot(self):
        _, plan, source, _ = plan_for("interned", SOURCE, TARGET)
        tampered = dataclasses.replace(plan, self_ids=plan.self_ids[:-1])
        assert codes_of(tampered, source) == {"slot-layout"}

    def test_self_ids_must_be_dictionary_ids(self):
        backend, plan, source, _ = plan_for("interned", SOURCE, TARGET)
        tampered = dataclasses.replace(plan, self_ids=tuple(reversed(plan.self_ids)))
        assert "slot-layout" in codes_of(tampered, source, backend.dictionary)
        assert codes_of(plan, source, backend.dictionary) == set()

    def test_source_variable_without_a_slot(self):
        _, plan, source, _ = plan_for("interned", SOURCE, TARGET)
        dropped = Variable("w")
        slot_variables = tuple(v for v in plan.slot_variables if v != dropped)
        tampered = dataclasses.replace(
            plan,
            slot_variables=slot_variables,
            slot_of={variable: slot for slot, variable in enumerate(slot_variables)},
            self_ids=plan.self_ids[: len(slot_variables)],
        )
        violations = verify_plan(tampered, source_atoms=source)
        assert any(v.code == "slot-layout" and "no slot" in v.message for v in violations)

    def test_fixed_slots_must_match_the_fixed_variables(self):
        fixed = frozenset({Variable("x")})
        _, plan, source, _ = plan_for("interned", "q(x) :- e(x,x), e(x,y)", TARGET, fixed)
        tampered = dataclasses.replace(plan, fixed_slots=())
        assert "fixed-mismatch" in codes_of(tampered, source, fixed_variables=fixed)

    def test_atom_scheduled_twice(self):
        _, plan, source, _ = plan_for("interned", SOURCE, TARGET)
        tampered = dataclasses.replace(plan, steps=plan.steps + (plan.steps[-1],))
        violations = verify_plan(tampered, source_atoms=source)
        assert any(
            v.code == "order-permutation" and "more than once" in v.message for v in violations
        )

    def test_static_filter_that_binds_slots(self):
        _, plan, source, _ = plan_for("interned", SOURCE, TARGET)
        tampered = dataclasses.replace(
            plan, static_steps=plan.steps[:1], steps=plan.steps[1:]
        )
        assert {"static-binds", "arity-mismatch"} <= codes_of(tampered, source)

    def test_static_filter_reading_an_unfixed_slot(self):
        fixed = frozenset({Variable("x")})
        _, plan, source, _ = plan_for("interned", "q(x) :- e(x,x), e(x,y)", TARGET, fixed)
        assert plan.static_steps
        # Drop the fixed contract the hoisted filter relies on.
        tampered = dataclasses.replace(plan, fixed_variables=frozenset(), fixed_slots=())
        assert "unbound-read" in codes_of(tampered, source)

    def test_step_ops_that_do_not_cover_the_arity(self):
        _, plan, source, _ = plan_for("interned", SOURCE, TARGET)
        step = plan.steps[0]
        tampered = dataclasses.replace(
            plan, steps=(rebuilt(step, new_ops=step.new_ops[:-1]),) + plan.steps[1:]
        )
        assert "arity-mismatch" in codes_of(tampered, source)

    def test_fresh_ops_with_swapped_slots(self):
        _, plan, source, _ = plan_for("interned", SOURCE, TARGET)
        step = next(s for s in plan.steps if len(s.new_ops) == 2)
        (p0, s0), (p1, s1) = step.new_ops
        swapped = rebuilt(step, new_ops=((p0, s1), (p1, s0)))
        tampered = dataclasses.replace(
            plan, steps=tuple(swapped if s is step else s for s in plan.steps)
        )
        assert "signature-mismatch" in codes_of(tampered, source)

    def test_constant_key_op_replaced_by_a_slot_read(self):
        _, plan, source, _ = plan_for("interned", "q() :- e(x,'a')", "p() :- e('a','a')")
        step = plan.steps[0]
        key_ops = tuple(0 if op < 0 else op for op in step.key_ops)
        tampered = dataclasses.replace(plan, steps=(rebuilt(step, key_ops=key_ops),))
        # Caught even without a dictionary: a constant position never reads a slot.
        violations = verify_plan(tampered, source_atoms=source)
        assert any(
            v.code == "signature-mismatch" and "constant" in v.message for v in violations
        )

    def test_constant_missing_from_the_dictionary(self):
        backend, plan, source, _ = plan_for(
            "interned", "q() :- e(x,'a')", "p() :- e('a','a')"
        )
        foreign = TermDictionary()
        for variable in plan.slot_variables:
            foreign.intern(variable)
        assert "constant-id" in codes_of(plan, source, foreign)
        assert codes_of(plan, source, backend.dictionary) == set()
