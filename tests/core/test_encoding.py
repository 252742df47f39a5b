"""Unit tests for the MPI encoding (Definitions 3.2 and 3.3)."""

import time
from fractions import Fraction

import pytest

from repro.core.encoding import encode, encode_most_general, unknown_name_for_atom
from repro.core.probe_tuples import most_general_probe_tuple
from repro.exceptions import NotProjectionFreeError
from repro.queries.parser import parse_cq
from repro.relational.atoms import Atom
from repro.relational.terms import CanonicalConstant, Constant
from repro.workloads.paper_examples import section3_containee, section3_containing

x1_hat, x2_hat = CanonicalConstant("x1"), CanonicalConstant("x2")
c1, c2 = Constant("c1"), Constant("c2")


class TestMonomialEncoding:
    def test_definition_3_2_example(self):
        """``M_{q1(x̂1 x̂2)}(u) = u1^2 · u2 · u3^3`` for the Section 3 containee."""
        containee = section3_containee()
        encoding = encode_most_general(containee, section3_containing())
        exponent_of = {
            atom: exponent
            for atom, exponent in zip(encoding.atoms, encoding.monomial.integer_exponents())
        }
        assert exponent_of[Atom("R", (x1_hat, x2_hat))] == 2
        assert exponent_of[Atom("R", (c1, x2_hat))] == 1
        assert exponent_of[Atom("R", (x1_hat, c2))] == 3
        assert encoding.dimension == 3
        assert encoding.monomial.coefficient == 1

    def test_monomial_exponents_follow_probe_collapses(self):
        # Grounding q(x1,x2) <- R(x1,x2), R(x2,x1) on (ĉ, ĉ) merges both atoms.
        containee = parse_cq("q1(x1, x2) <- R(x1, x2), R(x2, x1)")
        containing = parse_cq("q2(x1, x2) <- R(x1, x2)")
        encoding = encode(containee, containing, (x1_hat, x1_hat))
        assert encoding.dimension == 1
        assert encoding.monomial.integer_exponents() == (2,)

    def test_requires_projection_free_containee(self):
        with pytest.raises(NotProjectionFreeError):
            encode_most_general(parse_cq("q1(x1) <- R(x1, y1)"), parse_cq("q2(x1) <- R(x1, x1)"))


class TestPolynomialEncoding:
    def test_definition_3_3_example(self):
        """``P = u1^7 + u1^5·u2^2 + u1^3·u3^4`` with the paper's unknown numbering."""
        containee = section3_containee()
        containing = section3_containing()
        encoding = encode_most_general(containee, containing)
        assert encoding.num_mappings == 3
        assert len(encoding.polynomial) == 3

        # Re-index the exponent vectors by atom so the comparison does not
        # depend on the library's internal atom ordering.
        index_of = {atom: position for position, atom in enumerate(encoding.atoms)}
        base = Atom("R", (x1_hat, x2_hat))
        with_c1 = Atom("R", (c1, x2_hat))
        with_c2 = Atom("R", (x1_hat, c2))
        seen = set()
        for monomial in encoding.polynomial:
            exponents = monomial.exponents
            seen.add(
                (
                    int(exponents[index_of[base]]),
                    int(exponents[index_of[with_c1]]),
                    int(exponents[index_of[with_c2]]),
                )
            )
            assert monomial.coefficient == 1
        assert seen == {(7, 0, 0), (5, 2, 0), (3, 0, 4)}

    def test_identical_image_monomials_merge_their_coefficients(self):
        # The two symmetric mappings (y, z) -> (a, b) and (y, z) -> (b, a)
        # produce the same image query, hence the same monomial: the
        # polynomial merges them into a single monomial with coefficient 2.
        containee = parse_cq("q1(x1) <- R(x1, x1), S(x1, a), S(x1, b)")
        containing = parse_cq("q2(x1) <- R(x1, x1), S(x1, y), S(x1, z)")
        encoding = encode_most_general(containee, containing)
        assert encoding.num_mappings == 4
        assert len(encoding.polynomial) == 3
        assert sorted(monomial.coefficient for monomial in encoding.polynomial) == [1, 1, 2]

    def test_a_star_with_sixteen_million_mappings_has_its_closed_form(self):
        # Twelve existential rays over four boosted leaves: P = Π u_i² · (Σ u_i)^12,
        # so the 4^12 containment mappings merge into the 455 monomials of the
        # multinomial expansion.  Enumerating them one by one takes minutes;
        # the factorised encoding enumerates 12 factors of 4 mappings each.
        from math import comb, factorial, prod

        from repro.session import Session
        from repro.workloads.scale import wide_star_pair

        containee, containing = wide_star_pair(4, 12, 2, 2)
        started = time.perf_counter()
        encoding = encode_most_general(containee, containing)
        outcome = Session(memoize=False).decide(containee, containing)
        elapsed = time.perf_counter() - started
        assert encoding.num_mappings == 4**12 == 16_777_216
        assert len(encoding.polynomial) == comb(12 + 3, 3) == 455
        for monomial in encoding.polynomial:
            rays = [exponent - 2 for exponent in monomial.integer_exponents()]
            assert min(rays) >= 0 and sum(rays) == 12
            assert monomial.coefficient == factorial(12) // prod(map(factorial, rays))
        assert outcome.verdict is True
        assert elapsed < 5.0, f"encoded and decided in {elapsed:.2f}s"

    def test_no_containment_mappings_gives_the_zero_polynomial(self):
        containee = parse_cq("q1(x1) <- R(x1, x1)")
        containing = parse_cq("q2(x1) <- S(x1, x1)")
        encoding = encode_most_general(containee, containing)
        assert encoding.polynomial.is_zero()
        assert encoding.num_mappings == 0
        assert encoding.probe_unifiable_with_containing

    def test_non_unifiable_probe_is_reported(self):
        containee = parse_cq("q1(x1, x2) <- R(x1, x2)")
        containing = parse_cq("q2(x1, x1) <- R(x1, x1)")
        encoding = encode_most_general(containee, containing)
        assert not encoding.probe_unifiable_with_containing
        assert encoding.polynomial.is_zero()

    def test_arity_mismatch_behaves_like_non_unifiable(self):
        containee = parse_cq("q1(x1, x2) <- R(x1, x2)")
        containing = parse_cq("q2(x1) <- R(x1, x1)")
        encoding = encode_most_general(containee, containing)
        assert not encoding.probe_unifiable_with_containing


class TestSpecificProbeTuples:
    def test_encoding_at_a_constant_probe(self):
        containee = parse_cq("q1(x1) <- R(x1, c1)")
        containing = parse_cq("q2(x1) <- R(x1, y)")
        probe = (c1,)
        encoding = encode(containee, containing, probe)
        assert encoding.probe == probe
        assert encoding.grounded_containee.is_ground()
        assert encoding.dimension == 1
        # One containment mapping: x1 -> c1, y -> c1.
        assert encoding.num_mappings == 1
        assert encoding.polynomial.monomials[0].exponents == (Fraction(1),)

    def test_describe_mentions_all_parts(self):
        encoding = encode_most_general(section3_containee(), section3_containing())
        text = encoding.describe()
        assert "monomial" in text and "polynomial" in text and "unifiable" in text

    def test_unknown_names_match_atoms(self):
        encoding = encode_most_general(section3_containee(), section3_containing())
        for index, (name, atom) in enumerate(zip(encoding.unknown_names, encoding.atoms)):
            assert name == unknown_name_for_atom(atom, index)
            assert encoding.atom_index(atom) == index

    def test_inequality_ties_polynomial_and_monomial_together(self):
        encoding = encode_most_general(section3_containee(), section3_containing())
        assert encoding.inequality.polynomial == encoding.polynomial
        assert encoding.inequality.monomial == encoding.monomial
