"""Counterexample certificates for failed bag containments.

When ``q1 ⋢b q2`` the decision procedure does not merely answer "no": it
produces a :class:`ContainmentCounterexample` — a concrete bag instance
``µ`` over the canonical instance ``I_{q1(t)}`` and the answer tuple ``t``
on which the containment breaks, i.e. ``q1^µ(t) > q2^µ(t)``.  The
certificate stores the multiplicities *predicted* by the Diophantine
encoding and :meth:`ContainmentCounterexample.verify` recomputes both
multiplicities from scratch with the bag-evaluation engine, so every
negative answer of the library is independently checkable.

The replay evaluates Equation 2 directly
(:class:`~repro.engine.BagBatchEvaluator`, through
:func:`~repro.evaluation.bag_evaluation.bag_multiplicity`).  It shares
only two things with the encoding: the split of the containing body into
factors once the probe fixes the head, and the homomorphism engine that
enumerates each factor.  It reuses neither the encoding's position table
nor its monomial–polynomial inequality: it matches the homomorphisms'
images against the bag's facts and multiplies their multiplicities, so a
wrong exponent vector or a wrong polynomial coefficient in the encoding
shows up as a mismatch.  Because each factor is enumerated on its own, a
star with ``k`` existential rays over ``r`` leaves replays ``k·r``
homomorphisms instead of ``r^k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.encoding import MpiEncoding
from repro.evaluation.bag_evaluation import bag_multiplicity
from repro.exceptions import CertificateError
from repro.queries.cq import ConjunctiveQuery
from repro.relational.instances import BagInstance
from repro.relational.terms import Term

__all__ = ["ContainmentCounterexample", "counterexample_from_witness", "uniform_counterexample"]


@dataclass(frozen=True)
class ContainmentCounterexample:
    """A certified witness that bag containment fails.

    Attributes
    ----------
    probe:
        The answer tuple ``t`` whose multiplicity breaks the containment.
    bag:
        The bag instance ``µ`` over the canonical instance ``I_{q1(t)}``.
    containee_multiplicity / containing_multiplicity:
        The predicted multiplicities ``q1^µ(t)`` and ``q2^µ(t)``.
    """

    probe: tuple[Term, ...]
    bag: BagInstance
    containee_multiplicity: int
    containing_multiplicity: int

    def margin(self) -> int:
        """By how much the containee exceeds the containing query on this bag."""
        return self.containee_multiplicity - self.containing_multiplicity

    def verify(self, containee: ConjunctiveQuery, containing: ConjunctiveQuery) -> bool:
        """Recompute both multiplicities with the evaluation engine and compare.

        Returns ``True`` when the recomputed values match the stored ones and
        indeed witness a violation; raises :class:`CertificateError` when the
        stored values do not match the recomputation (which would indicate a
        bug in the encoding), and returns ``False`` when the bag is simply
        not a counterexample.
        """
        left = bag_multiplicity(containee, self.bag, self.probe)
        right = bag_multiplicity(containing, self.bag, self.probe)
        if left != self.containee_multiplicity or right != self.containing_multiplicity:
            raise CertificateError(
                "certificate multiplicities do not match a direct evaluation: "
                f"stored ({self.containee_multiplicity}, {self.containing_multiplicity}), "
                f"recomputed ({left}, {right})"
            )
        return left > right

    def describe(self) -> str:
        """Human-readable rendering of the counterexample."""
        facts = ", ".join(f"{fact}^{count}" for fact, count in self.bag.items())
        answer = ", ".join(str(term) for term in self.probe)
        return (
            f"on the bag {{{facts}}} the answer ({answer}) has multiplicity "
            f"{self.containee_multiplicity} in the containee but only "
            f"{self.containing_multiplicity} in the containing query"
        )


def counterexample_from_witness(
    encoding: MpiEncoding, witness: Sequence[int]
) -> ContainmentCounterexample:
    """Turn a Diophantine solution ``ξ`` of the encoded MPI into a counterexample bag.

    The bag assigns multiplicity ``ξ_i`` to the i-th atom of
    ``body(q1(t))``; by construction ``q1^µ(t) = M(ξ)`` and
    ``q2^µ(t) = P(ξ)``, and ``P(ξ) < M(ξ)`` because ``ξ`` solves the MPI.
    """
    values = tuple(int(component) for component in witness)
    if len(values) != encoding.dimension:
        raise CertificateError(
            f"witness of size {len(values)} for an encoding with {encoding.dimension} unknowns"
        )
    if any(component < 0 for component in values):
        raise CertificateError(f"witness components must be natural numbers, got {values}")

    bag = BagInstance({atom: value for atom, value in zip(encoding.atoms, values)})
    containee_multiplicity = int(encoding.monomial.evaluate(values))
    containing_multiplicity = int(encoding.polynomial.evaluate(values))
    if containee_multiplicity <= containing_multiplicity:
        raise CertificateError(
            f"witness {values} does not solve the encoded inequality "
            f"({containee_multiplicity} <= {containing_multiplicity})"
        )
    return ContainmentCounterexample(
        probe=encoding.probe,
        bag=bag,
        containee_multiplicity=containee_multiplicity,
        containing_multiplicity=containing_multiplicity,
    )


def uniform_counterexample(encoding: MpiEncoding) -> ContainmentCounterexample:
    """The all-ones counterexample, used when the probe tuple does not unify.

    When the probe tuple is not unifiable with the head of the containing
    query the containing query cannot produce the answer ``t`` at all, so
    the bag assigning multiplicity 1 to every atom of ``I_{q1(t)}`` already
    breaks the containment: ``q1^µ(t) = 1 > 0 = q2^µ(t)``.
    """
    return counterexample_from_witness(encoding, (1,) * encoding.dimension)
