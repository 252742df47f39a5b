"""Unit tests for substitutions, unification and the canonical freezing."""

import pytest

from repro.exceptions import SubstitutionError, UnificationError
from repro.relational.atoms import Atom
from repro.relational.substitutions import Substitution, canonical_substitution, unify_tuples
from repro.relational.terms import CanonicalConstant, Constant, Variable

x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b = Constant("a"), Constant("b")


class TestApplication:
    def test_applies_to_bound_variables_only(self):
        sigma = Substitution({x: a})
        assert sigma.apply_term(x) == a
        assert sigma.apply_term(y) == y
        assert sigma.apply_term(a) == a

    def test_applies_to_atoms(self):
        sigma = Substitution({x: a, y: b})
        assert sigma.apply_atom(Atom("R", (x, y, z))) == Atom("R", (a, b, z))

    def test_polymorphic_call(self):
        sigma = Substitution({x: a})
        assert sigma(x) == a
        assert sigma(Atom("R", (x,))) == Atom("R", (a,))
        assert sigma((x, y)) == (a, y)
        assert sigma([x, y]) == [a, y]

    def test_call_rejects_unknown_objects(self):
        with pytest.raises(SubstitutionError):
            Substitution({x: a})(42)

    def test_identity_bindings_are_dropped(self):
        sigma = Substitution({x: x, y: a})
        assert sigma.domain == frozenset({y})

    def test_variable_to_variable_bindings(self):
        sigma = Substitution({x: y})
        assert sigma.apply_atom(Atom("R", (x, x))) == Atom("R", (y, y))


    def test_bindings_is_a_read_only_view_that_applies_terms(self):
        sigma = Substitution({x: a, y: z})
        view = sigma.bindings()
        assert dict(view) == {x: a, y: z}
        for term in (x, y, z, a, CanonicalConstant("x")):
            assert view.get(term, term) == sigma.apply_term(term)
        with pytest.raises(TypeError):
            view[z] = b  # type: ignore[index]
        assert sigma == Substitution({x: a, y: z})


class TestConstruction:
    def test_rejects_non_variable_sources(self):
        with pytest.raises(SubstitutionError):
            Substitution({a: b})  # type: ignore[dict-item]

    def test_rejects_non_term_targets(self):
        with pytest.raises(SubstitutionError):
            Substitution({x: "a"})  # type: ignore[dict-item]

    def test_equality_and_hash(self):
        assert Substitution({x: a}) == Substitution({x: a})
        assert hash(Substitution({x: a})) == hash(Substitution({x: a}))
        assert Substitution({x: a}) != Substitution({x: b})


class TestAlgebra:
    def test_compose_applies_self_then_other(self):
        first = Substitution({x: y})
        second = Substitution({y: a})
        composed = first.compose(second)
        assert composed.apply_term(x) == a
        assert composed.apply_term(y) == a

    def test_compose_respects_documented_equation(self):
        first = Substitution({x: y, z: a})
        second = Substitution({y: b})
        composed = first.compose(second)
        for term in (x, y, z, a):
            assert composed.apply_term(term) == second.apply_term(first.apply_term(term))

    def test_restrict(self):
        sigma = Substitution({x: a, y: b})
        assert sigma.restrict([x]) == Substitution({x: a})

    def test_extend_accepts_consistent_binding(self):
        sigma = Substitution({x: a}).extend(y, b)
        assert sigma == Substitution({x: a, y: b})

    def test_extend_rejects_conflicting_binding(self):
        with pytest.raises(SubstitutionError):
            Substitution({x: a}).extend(x, b)

    def test_merge(self):
        merged = Substitution({x: a}).merge(Substitution({y: b}))
        assert merged == Substitution({x: a, y: b})

    def test_merge_rejects_conflicts(self):
        with pytest.raises(SubstitutionError):
            Substitution({x: a}).merge(Substitution({x: b}))

    def test_domain_and_image(self):
        sigma = Substitution({x: a, y: b})
        assert sigma.domain == frozenset({x, y})
        assert sigma.image == frozenset({a, b})

    def test_is_ground_on(self):
        sigma = Substitution({x: a, y: z})
        assert sigma.is_ground_on([x])
        assert not sigma.is_ground_on([x, y])

    def test_identity(self):
        assert len(Substitution.identity()) == 0


class TestUnification:
    def test_simple_unification(self):
        sigma = unify_tuples((x, y), (a, b))
        assert sigma.apply_tuple((x, y)) == (a, b)

    def test_repeated_variables_must_be_consistent(self):
        assert unify_tuples((x, x), (a, a)).apply_term(x) == a
        with pytest.raises(UnificationError):
            unify_tuples((x, x), (a, b))

    def test_constants_in_pattern_must_match(self):
        assert unify_tuples((a, x), (a, b)).apply_term(x) == b
        with pytest.raises(UnificationError):
            unify_tuples((a, x), (b, b))

    def test_length_mismatch(self):
        with pytest.raises(UnificationError):
            unify_tuples((x,), (a, b))


class TestCanonicalSubstitution:
    def test_freezes_variables_to_canonical_constants(self):
        sigma = canonical_substitution([x, y])
        assert sigma.apply_term(x) == CanonicalConstant("x")
        assert sigma.apply_term(y) == CanonicalConstant("y")
        assert sigma.apply_term(z) == z
