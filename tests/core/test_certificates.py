"""Unit tests for counterexample certificates."""

import pytest

from repro.core.certificates import (
    ContainmentCounterexample,
    counterexample_from_witness,
    uniform_counterexample,
)
from repro.core.decision import decide_via_most_general_probe
from repro.core.encoding import encode_most_general
from repro.exceptions import CertificateError
from repro.faults.runtime import deadline_scope
from repro.queries.parser import parse_cq
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance
from repro.relational.terms import CanonicalConstant
from repro.workloads.paper_examples import section2_q1, section2_q2
from repro.workloads.scale import wide_star_pair


def negative_encoding():
    """Encoding of ``q2 ⊑b q1`` (which fails) at the most-general probe tuple."""
    return encode_most_general(section2_q2(), section2_q1())


class TestCounterexampleFromWitness:
    def test_witness_builds_a_verified_counterexample(self):
        encoding = negative_encoding()
        # (2, 1): R-multiplicity 2, P-multiplicity 1 — the bag used in the paper.
        witness_order = tuple(
            2 if atom.relation == "R" else 1 for atom in encoding.atoms
        )
        certificate = counterexample_from_witness(encoding, witness_order)
        assert certificate.containee_multiplicity == 8
        assert certificate.containing_multiplicity == 4
        assert certificate.margin() == 4
        assert certificate.verify(section2_q2(), section2_q1())

    def test_non_solution_witnesses_are_rejected(self):
        encoding = negative_encoding()
        with pytest.raises(CertificateError):
            counterexample_from_witness(encoding, (1,) * encoding.dimension)

    def test_wrong_dimension_is_rejected(self):
        encoding = negative_encoding()
        with pytest.raises(CertificateError):
            counterexample_from_witness(encoding, (2,))

    def test_negative_components_are_rejected(self):
        encoding = negative_encoding()
        with pytest.raises(CertificateError):
            counterexample_from_witness(encoding, (-1, 2))

    def test_describe_mentions_the_multiplicities(self):
        encoding = negative_encoding()
        witness = tuple(2 if atom.relation == "R" else 1 for atom in encoding.atoms)
        text = counterexample_from_witness(encoding, witness).describe()
        assert "8" in text and "4" in text


class TestUniformCounterexample:
    def test_non_unifiable_probe_has_the_all_ones_counterexample(self):
        containee = parse_cq("q1(x1, x2) <- R(x1, x2)")
        containing = parse_cq("q2(x1, x1) <- R(x1, x1)")
        encoding = encode_most_general(containee, containing)
        certificate = uniform_counterexample(encoding)
        assert certificate.containee_multiplicity == 1
        assert certificate.containing_multiplicity == 0
        assert certificate.verify(containee, containing)


class TestVerification:
    def test_verify_detects_tampered_multiplicities(self):
        containee = parse_cq("q1(x, y) <- R(x, y)")
        containing = parse_cq("q2(x, y) <- R^2(x, y)")
        bag = BagInstance({Atom("R", (CanonicalConstant("x"), CanonicalConstant("y"))): 3})
        tampered = ContainmentCounterexample(
            probe=(CanonicalConstant("x"), CanonicalConstant("y")),
            bag=bag,
            containee_multiplicity=99,
            containing_multiplicity=0,
        )
        with pytest.raises(CertificateError):
            tampered.verify(containee, containing)

    def test_verify_returns_false_for_a_consistent_non_violation(self):
        containee = parse_cq("q1(x, y) <- R(x, y)")
        containing = parse_cq("q2(x, y) <- R^2(x, y)")
        bag = BagInstance({Atom("R", (CanonicalConstant("x"), CanonicalConstant("y"))): 3})
        honest = ContainmentCounterexample(
            probe=(CanonicalConstant("x"), CanonicalConstant("y")),
            bag=bag,
            containee_multiplicity=3,
            containing_multiplicity=9,
        )
        assert honest.verify(containee, containing) is False


class TestFactorisedReplay:
    def test_a_wide_star_certificate_replays_per_factor(self):
        # The containing star has 8 existential rays over 8 leaves: 8^8
        # whole-body homomorphisms, but 8 factors of 8 each.  Replaying
        # the product would not finish inside the budget.
        containee, containing = wide_star_pair(8, 8, containee_boost=4)
        result = decide_via_most_general_probe(
            containee, containing, verify_counterexamples=False
        )
        certificate = result.counterexample
        assert certificate is not None
        with deadline_scope(1000):
            assert certificate.verify(containee, containing)
