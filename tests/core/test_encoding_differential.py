"""Differential tests: the factorised encoding against image-query construction.

The oracle below is the direct reading of Definition 3.3: for every
containment mapping ``h`` of the whole body (the unfactorised
``batcher.mappings(grounded, probe)``) build the image query ``h(q2)``
(Equation 1 sums the multiplicities of collapsing atoms), read its exponent
vector off the grounded containee's atoms as fractions, and let
:class:`Polynomial` merge equal monomials.  The library never materialises
image queries, and it enumerates each factor of the containing body
separately and convolves; both must agree on the monomial, the polynomial,
the inequality and the mapping count.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import _encode_at_probe, encode, encode_most_general
from repro.core.probe_tuples import most_general_probe_tuple
from repro.diophantine.inequalities import MonomialPolynomialInequality
from repro.diophantine.monomials import Monomial
from repro.diophantine.polynomials import Polynomial
from repro.engine import ContainmentMappingBatcher
from repro.exceptions import ContainmentError, UnificationError
from repro.queries.cq import ConjunctiveQuery
from repro.queries.parser import parse_cq
from repro.session import Session
from repro.relational.atoms import Atom
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


class _FixedBatcher(ContainmentMappingBatcher):
    """The real factors over a stand-in engine that returns a fixed tuple of mappings."""

    def __init__(self, containing, mappings):
        super().__init__(containing)
        self._fixed = tuple(mappings)

    def mappings(self, grounded, probe, factor=None):
        return self._fixed


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
        bogus = _FixedBatcher(
            containing, [Substitution({x1: CanonicalConstant("x1"), y: binding})]
        )
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
            _encode_at_probe(containee, containing, probe, _FixedBatcher(containing, [mapping]))

    def test_paper_section3_example(self):
        from repro.workloads.paper_examples import section3_containee, section3_containing

        containee, containing = section3_containee(), section3_containing()
        encoding = encode_most_general(containee, containing)
        monomial, polynomial, inequality, num_mappings = _oracle(
            containee, containing, encoding.probe
        )
        assert (encoding.monomial, encoding.polynomial) == (monomial, polynomial)
        assert encoding.inequality == inequality and encoding.num_mappings == num_mappings == 3


@pytest.mark.parametrize("backend", ["naive", "interned"])
class TestFactorisedHandCases:
    def _agrees(self, backend, containee, containing, factors):
        assert len(ContainmentMappingBatcher(containing).factors) == factors
        with Session(backend=backend).activate():
            return _assert_agrees(containee, containing, most_general_probe_tuple(containee))

    def test_components_that_collapse_onto_one_atom(self, backend):
        containee = parse_cq("q1(x) <- R(x, a), R(x, b)")
        containing = parse_cq("q2(x) <- R^2(x, y), R^3(x, z)")
        encoding = self._agrees(backend, containee, containing, factors=2)
        assert encoding.num_mappings == 4
        assert sorted(m.integer_exponents() for m in encoding.polynomial) == [
            (0, 5), (2, 3), (3, 2), (5, 0)
        ]

    def test_a_factor_without_mappings_gives_the_zero_polynomial(self, backend):
        containee = parse_cq("q1(x) <- R(x, a), S(a, x)")
        containing = parse_cq("q2(x) <- R(x, y), T(x, z)")
        encoding = self._agrees(backend, containee, containing, factors=2)
        assert encoding.polynomial.is_zero() and encoding.num_mappings == 0

    def test_a_head_only_atom_missing_from_the_grounded_body(self, backend):
        containee = parse_cq("q1(x) <- R(x, a), S(a, x)")
        containing = parse_cq("q2(x) <- R(x, y), S(z, x), S(x, x)")
        encoding = self._agrees(backend, containee, containing, factors=2)
        assert encoding.polynomial.is_zero() and encoding.num_mappings == 0

    def test_copies_listed_in_different_body_orders_share_and_agree(self, backend):
        containee = parse_cq("q1(x) <- R(x, a), R(a, b), R^2(x, b), R(b, b)")
        containing = parse_cq(
            "q2(x) <- R(x, y1), R(x, z1), R(z1, v1), R(x, u2), R(u2, w2), "
            "R(x, z3), R(z3, v3), R(x, u4), R(u4, w4)"
        )
        assert ContainmentMappingBatcher(containing).classes == (0, 1, 2, 1, 1)
        encoding = self._agrees(backend, containee, containing, factors=5)
        assert encoding.num_mappings == 2**5

    def test_head_only_and_constant_only_atoms_join_the_first_factor(self, backend):
        containee = parse_cq("q1(x) <- R(x, a), R(x, b), S(a, x), S(a, a)")
        containing = parse_cq("q2(x) <- S(a, x), R(x, y), S^2(a, a), R(x, z), S(a, x)")
        encoding = self._agrees(backend, containee, containing, factors=2)
        assert encoding.num_mappings == 4


#: The most general probe collapses nothing, so repeated head variables
#: need constant probes to unify.
_CONSTANT_PROBES = ((Constant("a"), Constant("b")), (Constant("a"), Constant("a")))


_X, _Y, _A = Variable("x"), Variable("y"), Constant("a")


@st.composite
def dense_containees(draw) -> ConjunctiveQuery:
    """Projection-free containees with head ``(x, y)`` and three to six more atoms over ``x, y, a``."""
    terms = st.sampled_from([_X, _Y, _A])
    body: dict[Atom, int] = {Atom("R", (_X, _Y)): 1}
    for _ in range(draw(st.integers(min_value=3, max_value=6))):
        atom = Atom(draw(st.sampled_from("RS")), (draw(terms), draw(terms)))
        body[atom] = body.get(atom, 0) + draw(st.integers(min_value=1, max_value=2))
    return ConjunctiveQuery((_X, _Y), body, name="q")


@st.composite
def multi_factor_queries(draw) -> ConjunctiveQuery:
    """Containing queries whose body has two or three existential components.

    Every atom of component ``i`` holds ``z<i>``, and its other term is a
    head variable, ``a``, ``z<i>`` or ``w<i>``, so components never share
    an existential variable.  Relation ``T`` never occurs in a containee,
    which makes its factor empty.  The head atom keeps the query safe; up
    to two head-only or constant-only atoms ride along, and the head may
    repeat a variable.
    """
    head = draw(st.sampled_from([(_X, _Y), (_X, _X)]))
    head_terms = sorted(set(head), key=str) + [_A]
    body: dict[Atom, int] = {Atom("R", head): 1}

    def add(relation, terms):
        atom = Atom(relation, terms)
        body[atom] = body.get(atom, 0) + draw(st.integers(min_value=1, max_value=3))

    for component in range(draw(st.integers(min_value=2, max_value=3))):
        z, w = Variable(f"z{component}"), Variable(f"w{component}")
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            other = draw(st.sampled_from([*head_terms, z, w, w, w]))
            add(draw(st.sampled_from("RSRSRST")), tuple(draw(st.permutations([z, other]))))
    terms = st.sampled_from(head_terms)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        add(draw(st.sampled_from("RS")), (draw(terms), draw(terms)))
    return ConjunctiveQuery(head, body, name="p")


_B = Constant("b")


@st.composite
def repeated_factor_queries(draw) -> tuple[ConjunctiveQuery, Variable | None]:
    """Containing queries that repeat one factor under renamed existential variables.

    A template of one or two atoms, each holding ``z`` next to a head
    variable, ``a``, ``z`` or ``w``, is copied three to five times with
    ``z`` and ``w`` renamed apart, so every copy is one factor.  One more
    copy may differ from the template in its first atom's multiplicity,
    relation or constant; it must not share.  The query orders its body,
    so whichever copy comes first is factor 0, and the unchanged copies
    after it must all share the class of the first of them.  The head atom joins factor 0
    unless the template already holds every head variable, and a
    variable-free ``S(a, a)`` may join it too, which starts factor 0's
    table at a non-zero vector.  Returns the query and the odd copy's
    renamed ``z`` (``None`` without one).
    """
    head = draw(st.sampled_from([(_X, _Y), (_X, _X)]))
    head_variables = sorted(set(head), key=str)
    z, w = Variable("z"), Variable("w")
    template = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        other = draw(st.sampled_from([*head_variables, _A, z, w]))
        terms = tuple(draw(st.permutations([z, other])))
        template.append((draw(st.sampled_from("RS")), terms, draw(st.integers(1, 3))))
    copies = draw(st.integers(min_value=3, max_value=5))
    odd = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=copies)))
    change = draw(st.sampled_from(["multiplicity", "relation", "constant"]))

    body: dict[Atom, int] = {}
    covered = {term for _, terms, _ in template for term in terms} >= set(head_variables)
    if not covered or draw(st.booleans()):
        body[Atom("R", head)] = 1
    if draw(st.booleans()):
        body[Atom("S", (_A, _A))] = 2
    for copy in range(copies + (odd is not None)):
        renaming = {z: Variable(f"z{copy}"), w: Variable(f"w{copy}")}
        for position, (relation, terms, multiplicity) in enumerate(template):
            terms = tuple(renaming.get(term, term) for term in terms)
            if copy == odd and position == 0:
                if change == "multiplicity":
                    multiplicity += 1
                elif change == "relation":
                    relation = "S" if relation == "R" else "R"
                else:
                    terms = (terms[0], _B) if terms[1] != renaming[z] else (_B, terms[1])
            atom = Atom(relation, terms)
            body[atom] = body.get(atom, 0) + multiplicity
    return ConjunctiveQuery(head, body, name="p"), Variable(f"z{odd}") if odd else None


def _expected_classes(factors, odd):
    """Factor 0 and the odd copy stand alone; the other copies share the first of them."""
    plain = [
        index for index, factor in enumerate(factors)
        if index and all(odd not in atom.terms for atom in factor)
    ]
    return tuple(plain[0] if index in plain else index for index in range(len(factors)))


class TestGenerated:
    @pytest.mark.parametrize("backend", ["naive", "interned"])
    @given(dense_containees(), repeated_factor_queries())
    @settings(max_examples=60, deadline=None)
    def test_repeated_factors_agree_with_image_queries(self, backend, containee, case):
        containing, odd = case
        batcher = ContainmentMappingBatcher(containing)
        assert batcher.classes == _expected_classes(batcher.factors, odd)
        with Session(backend=backend).activate():
            for probe in (most_general_probe_tuple(containee), *_CONSTANT_PROBES):
                try:
                    containee.ground(probe)
                except UnificationError:
                    continue
                _assert_agrees(containee, containing, probe)

    @pytest.mark.parametrize("backend", ["naive", "interned"])
    @given(dense_containees(), multi_factor_queries())
    @settings(max_examples=60, deadline=None)
    def test_multi_factor_bodies_agree_with_image_queries(self, backend, containee, containing):
        assert len(ContainmentMappingBatcher(containing).factors) >= 2
        with Session(backend=backend).activate():
            for probe in (most_general_probe_tuple(containee), *_CONSTANT_PROBES):
                try:
                    containee.ground(probe)
                except UnificationError:
                    continue
                _assert_agrees(containee, containing, probe)

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
