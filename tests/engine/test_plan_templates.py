"""Plan templates: compiled once per query shape, bound to each target.

A plan's join order depends on the source only up to a renaming of its
variables, on which positions are fixed or constant, and on the target's
bucket sizes.  The interned backend keys a target-free template on exactly
that (``canonical_source``) and binds it per target.  These properties
check, on generated sources with constants, repeated variables, duplicate
atoms and fixed variables that occur in no atom:

* the bound plan finds the reference backend's solutions;
* a renamed source reuses the template, and its bound plan is the original
  plan with the renaming applied;
* a plan compiled behind a warm cache, whose target already built other
  indexes, equals the plan compiled with no cache at all;
* the soundness verifier finds nothing wrong with any of them.
"""

from __future__ import annotations

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.soundness import verify_plan
from repro.engine import EngineCache, InternedBackend, NaiveBackend
from repro.engine.interned import canonical_source, compile_interned_plan
from repro.relational.atoms import Atom
from repro.relational.terms import Constant, Variable
from repro.session import Session

_ARITIES = {"R": 2, "S": 2, "U": 1}
_VARIABLES = [Variable(f"v{i}") for i in range(5)]
_OTHERS = [Variable("f0"), Variable("f1")]  # fixed, but in no source atom
_CONSTANTS = [Constant(name) for name in "abcd"]


def _atom(relation, terms):
    return Atom(relation, tuple(terms[: _ARITIES[relation]]))


def source_atoms():
    terms = st.one_of(st.sampled_from(_VARIABLES), st.sampled_from(_CONSTANTS[:2]))
    atom = st.builds(_atom, st.sampled_from(sorted(_ARITIES)), st.lists(terms, min_size=2, max_size=2))
    return st.lists(atom, min_size=1, max_size=5)


def target_atoms():
    terms = st.sampled_from(_CONSTANTS)
    atom = st.builds(_atom, st.sampled_from(sorted(_ARITIES)), st.lists(terms, min_size=2, max_size=2))
    return st.lists(atom, min_size=0, max_size=9)


@st.composite
def planning_cases(draw):
    """``(source, target, fixed mapping)``; the source may repeat an atom."""
    source = draw(source_atoms())
    if draw(st.booleans()):
        source.append(draw(st.sampled_from(source)))
    variables = sorted({v for atom in source for v in atom.variables()}, key=str)
    fixed = draw(st.lists(st.sampled_from(variables + _OTHERS), unique=True))
    target = draw(target_atoms())
    values = {variable: draw(st.sampled_from(_CONSTANTS)) for variable in fixed}
    return source, target, values


@st.composite
def renamings(draw):
    """An injective renaming of every variable the cases use, onto fresh names."""
    fresh = draw(st.permutations([Variable(f"w{i}") for i in range(len(_VARIABLES + _OTHERS))]))
    return dict(zip(_VARIABLES + _OTHERS, fresh))


def _renamed(atom, renaming):
    return Atom(atom.relation, tuple(renaming.get(term, term) for term in atom.terms))


def _steps(plan):
    return plan.static_steps + plan.steps


def _assert_same_plan(plan, other, renaming=None):
    """*other* is *plan* with *renaming* applied to its atoms and variables."""
    rename = (lambda v: renaming.get(v, v)) if renaming else (lambda v: v)
    assert (len(plan.static_steps), len(plan.steps)) == (len(other.static_steps), len(other.steps))
    for step, bound in zip(_steps(plan), _steps(other)):
        expected = _renamed(step.atom, renaming) if renaming else step.atom
        assert bound.atom == expected
        assert bound.key_ops == step.key_ops and bound.new_ops == step.new_ops
        assert bound.group is step.group and bound.bucket == step.bucket
    assert other.fixed_variables == frozenset(map(rename, plan.fixed_variables))
    assert other.source_variables == frozenset(map(rename, plan.source_variables))
    # Source variables take their slots from the canonical numbering; the
    # other fixed variables follow, in name order.
    count = len(plan.source_variables)
    assert other.slot_variables[:count] == tuple(map(rename, plan.slot_variables[:count]))
    assert set(other.slot_variables[count:]) == set(map(rename, plan.slot_variables[count:]))


def _assert_sound(backend, plan, source, fixed):
    assert verify_plan(plan, source_atoms=source, fixed_variables=fixed, dictionary=backend.dictionary) == []


class TestTemplateProperties:
    @given(planning_cases())
    @settings(max_examples=200, deadline=None)
    def test_bound_plans_find_the_reference_solutions(self, case):
        source, target, values = case
        backend = InternedBackend(cache=EngineCache())
        plan = backend.plan(source, target, frozenset(values))
        _assert_sound(backend, plan, source, frozenset(values))
        expected = set(NaiveBackend().iterate(source, target, values))
        assert set(backend.iterate(source, target, values)) == expected
        assert backend.count(source, target, values) == len(expected)
        assert backend.exists(source, target, values) == bool(expected)

    @given(planning_cases(), renamings())
    @settings(max_examples=200, deadline=None)
    def test_a_renamed_source_binds_the_same_template(self, case, renaming):
        source, target, values = case
        fixed = frozenset(values)
        backend = InternedBackend(cache=EngineCache())
        plan = backend.plan(source, target, fixed)
        misses, hits = backend.cache.plan_stats.misses, backend.cache.plan_stats.hits
        renamed_source = [_renamed(atom, renaming) for atom in source]
        renamed_fixed = frozenset(renaming[v] for v in fixed)
        interned = backend.target(target)
        assert (
            canonical_source(interned, renamed_source, renamed_fixed).key
            == canonical_source(interned, source, fixed).key
        )
        renamed = backend.plan(renamed_source, target, renamed_fixed)
        assert backend.cache.plan_stats.misses == misses
        assert backend.cache.plan_stats.hits == hits + 1
        _assert_same_plan(plan, renamed, renaming)
        _assert_sound(backend, renamed, renamed_source, renamed_fixed)
        renamed_values = {renaming[v]: value for v, value in values.items()}
        assert backend.count(renamed_source, target, renamed_values) == backend.count(
            source, target, values
        )

    @given(planning_cases(), st.lists(planning_cases(), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_a_warm_cache_compiles_the_cold_plan(self, case, others):
        source, target, values = case
        fixed = frozenset(values)
        backend = InternedBackend(cache=EngineCache())
        # Warm up: other sources against this target and others, which
        # builds signature indexes on the target and fills the plan layer.
        for other_source, other_target, other_values in others:
            for probed in (target, other_target):
                backend.count(other_source, probed, other_values)
                backend.plan(other_source, probed, frozenset(other_values))
        warm = backend.plan(source, target, fixed)
        cold = compile_interned_plan(backend.dictionary, backend.target(target), source, fixed)
        _assert_same_plan(cold, warm)
        assert (warm.slot_variables, warm.self_ids, warm.fixed_slots) == (
            cold.slot_variables,
            cold.self_ids,
            cold.fixed_slots,
        )
        _assert_sound(backend, warm, source, fixed)


class TestCompileCounts:
    def test_one_seed_0_wide_pass_compiles_four_templates(self):
        # e2ebench's `wide` traffic renames every request: 102 requests of
        # four star shapes, two factor plans each.  Keyed by target
        # identity, every one of the 204 plans compiled.
        sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "e2ebench"))
        try:
            import pools
        finally:
            sys.path.pop(0)
        session = Session(memoize=False)
        for item in pools.build("wide", 0).items:
            session.decide(item.request)
        assert session.cache.plan_stats.misses == 4
        assert session.cache.plan_stats.hits == 200
