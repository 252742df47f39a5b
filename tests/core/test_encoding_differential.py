"""Differential tests: the position-table encoding against image-query construction.

The oracle below is the direct reading of Definition 3.3: for every
containment mapping ``h`` build the image query ``h(q2)`` (Equation 1 sums
the multiplicities of collapsing atoms), read its exponent vector off the
grounded containee's atoms as fractions, and let :class:`Polynomial` merge
equal monomials.  The library never materialises image queries; both must
agree on the monomial, the polynomial, the inequality and the mapping count.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.core.encoding import _encode_at_probe, encode, encode_most_general
from repro.core.probe_tuples import most_general_probe_tuple
from repro.diophantine.inequalities import MonomialPolynomialInequality
from repro.diophantine.monomials import Monomial
from repro.diophantine.polynomials import Polynomial
from repro.engine import ContainmentMappingBatcher
from repro.exceptions import ContainmentError, UnificationError
from repro.queries.parser import parse_cq
from repro.session import Session
from repro.relational.substitutions import Substitution, unify_tuples
from repro.relational.terms import CanonicalConstant, Constant, Variable

from tests.properties.strategies import projection_free_queries, queries_over_shared_head


def _oracle(containee, containing, probe, batcher=None):
    """``(monomial, polynomial, inequality, num_mappings)`` built from image queries."""
    grounded = containee.ground(probe, name=f"{containee.name}(t)")
    atoms = grounded.body_atoms()
    body = grounded.body
    monomial = Monomial(1, tuple(body[atom] for atom in atoms))
    try:
        unify_tuples(containing.head, probe)
        unifiable = True
    except UnificationError:
        unifiable = False
    mappings = ()
    images = []
    if unifiable:
        batcher = batcher or ContainmentMappingBatcher(containing)
        mappings = batcher.mappings(grounded, probe)
        positions = {atom: index for index, atom in enumerate(atoms)}
        for mapping in mappings:
            image = containing.apply_substitution(mapping)
            exponents = [Fraction(0)] * len(atoms)
            for atom, multiplicity in image.body.items():
                if atom not in positions:
                    raise ContainmentError(f"image atom {atom} is outside the grounded body")
                exponents[positions[atom]] = Fraction(multiplicity)
            images.append(Monomial(Fraction(1), exponents))
    polynomial = Polynomial(images, dimension=len(atoms))
    return monomial, polynomial, MonomialPolynomialInequality(polynomial, monomial), len(mappings)


def _assert_agrees(containee, containing, probe):
    encoding = encode(containee, containing, probe)
    monomial, polynomial, inequality, num_mappings = _oracle(containee, containing, probe)
    assert encoding.monomial == monomial
    assert encoding.polynomial == polynomial
    assert encoding.inequality == inequality
    assert encoding.num_mappings == num_mappings
    return encoding


class _FixedBatcher:
    """A stand-in engine that returns a fixed tuple of mappings."""

    def __init__(self, mappings):
        self._mappings = tuple(mappings)

    def mappings(self, grounded, probe):
        return self._mappings


class TestHandCases:
    def test_collapsing_containing_atoms_sum_their_multiplicities(self):
        containee = parse_cq("q1(x) <- R(x, x)")
        containing = parse_cq("q2(x) <- R^2(x, y), R^3(x, z)")
        probe = most_general_probe_tuple(containee)
        encoding = _assert_agrees(containee, containing, probe)
        assert encoding.num_mappings == 1
        assert [m.integer_exponents() for m in encoding.polynomial] == [(5,)]

    def test_constants_in_the_containing_body(self):
        containee = parse_cq("q1(x1, x2) <- R(x1, c1), S(x1, x2), S(x1, c1), S(c1, c1)")
        containing = parse_cq("q2(x1, x2) <- R^2(x1, c1), S(x1, y), S(x1, x2), S(c1, c1)")
        probe = most_general_probe_tuple(containee)
        encoding = _assert_agrees(containee, containing, probe)
        assert encoding.num_mappings == 2
        assert len(encoding.polynomial) == 2

    def test_merged_mappings_count_into_the_coefficient(self):
        containee = parse_cq("q1(x1) <- R(x1, x1), S(x1, a), S(x1, b)")
        containing = parse_cq("q2(x1) <- R(x1, x1), S(x1, y), S(x1, z)")
        encoding = _assert_agrees(containee, containing, most_general_probe_tuple(containee))
        assert sorted(m.coefficient for m in encoding.polynomial) == [1, 1, 2]

    def test_non_unifiable_probe(self):
        containee = parse_cq("q1(x1, x2) <- R(x1, x2)")
        containing = parse_cq("q2(x1, x1) <- R(x1, x1)")
        encoding = _assert_agrees(containee, containing, most_general_probe_tuple(containee))
        assert not encoding.probe_unifiable_with_containing
        assert encoding.num_mappings == 0

    def test_zero_mappings(self):
        containee = parse_cq("q1(x1) <- R(x1, x1)")
        containing = parse_cq("q2(x1) <- S(x1, x1)")
        encoding = _assert_agrees(containee, containing, most_general_probe_tuple(containee))
        assert encoding.probe_unifiable_with_containing
        assert encoding.polynomial.is_zero()

    def test_constant_probe(self):
        containee = parse_cq("q1(x1) <- R(x1, c1), R(c1, x1)")
        containing = parse_cq("q2(x1) <- R(x1, y)")
        _assert_agrees(containee, containing, (Constant("c1"),))

    @pytest.mark.parametrize(
        "binding",
        [Constant("elsewhere"), CanonicalConstant("x1"), Variable("loose")],
        ids=["foreign-constant", "wrong-position", "variable"],
    )
    def test_image_outside_the_grounded_body_raises(self, binding):
        containee = parse_cq("q1(x1) <- R(x1, c1)")
        containing = parse_cq("q2(x1) <- R(x1, y)")
        probe = most_general_probe_tuple(containee)
        x1, y = Variable("x1"), Variable("y")
        bogus = _FixedBatcher([Substitution({x1: CanonicalConstant("x1"), y: binding})])
        with pytest.raises(ContainmentError, match="not part of the grounded containee body"):
            _encode_at_probe(containee, containing, probe, bogus)
        with pytest.raises(ContainmentError):
            _oracle(containee, containing, probe, bogus)

    def test_variable_free_containing_atom_outside_the_body_raises(self):
        containee = parse_cq("q1(x1) <- R(x1, c1)")
        containing = parse_cq("q2(x1) <- R(x1, y), S(c1, c1)")
        probe = most_general_probe_tuple(containee)
        mapping = Substitution({Variable("x1"): CanonicalConstant("x1"), Variable("y"): Constant("c1")})
        with pytest.raises(ContainmentError, match="S\\(c1, c1\\)"):
            _encode_at_probe(containee, containing, probe, _FixedBatcher([mapping]))

    def test_paper_section3_example(self):
        from repro.workloads.paper_examples import section3_containee, section3_containing

        containee, containing = section3_containee(), section3_containing()
        encoding = encode_most_general(containee, containing)
        monomial, polynomial, inequality, num_mappings = _oracle(
            containee, containing, encoding.probe
        )
        assert (encoding.monomial, encoding.polynomial) == (monomial, polynomial)
        assert encoding.inequality == inequality and encoding.num_mappings == num_mappings == 3


class TestGenerated:
    @given(projection_free_queries(), queries_over_shared_head())
    @settings(max_examples=80, deadline=None)
    def test_most_general_probe_agrees_with_image_queries(self, containee, containing):
        _assert_agrees(containee, containing, most_general_probe_tuple(containee))

    @given(projection_free_queries(), queries_over_shared_head())
    @settings(max_examples=40, deadline=None)
    def test_naive_engine_mappings_agree_with_image_queries(self, containee, containing):
        with Session(backend="naive").activate():
            _assert_agrees(containee, containing, most_general_probe_tuple(containee))

    @given(projection_free_queries(max_atoms=4), projection_free_queries(max_atoms=4))
    @settings(max_examples=60, deadline=None)
    def test_constant_probes_agree_with_image_queries(self, containee, containing):
        for probe in ((Constant("a"), Constant("b")), (Constant("a"), Constant("a"))):
            try:
                containee.ground(probe)
            except UnificationError:
                continue
            _assert_agrees(containee, containing, probe)
