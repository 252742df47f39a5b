"""The bag-containment decision procedures.

Three strategies are provided, all implementing the same characterisation
(bag containment of a projection-free CQ into a generic CQ) at different
points of the paper:

``most-general`` (default, Theorem 5.3)
    Encode the single MPI associated with the most-general probe tuple and
    decide it via the linear-system reduction.  This is the production path.

``all-probes`` (Corollary 3.1)
    Enumerate every probe tuple, check unifiability with the containing
    head, and decide one MPI per probe tuple.  Exponential in the arity of
    the containee; kept as a reference implementation and for the E7 bench.

``bounded-guess`` (Theorem 5.1)
    For every probe tuple, enumerate the candidate natural vectors ``d``
    within the solution-size bound and look for one violating every
    containment-mapping inequality.  This mirrors the ΠP2 guess-&-check
    procedure literally (and is therefore exponential-time when run
    deterministically); only suitable for small instances and cross-checks.

The three share one probe walk (Theorem 3.1): a probe tuple that is not
unifiable with the containing head refutes containment with the uniform
counterexample, and otherwise the strategy's own step (the solver, or the
bounded guess) looks for a solution of that probe's MPI.  All strategies
return a :class:`BagContainmentResult` that carries the MPI encodings they
inspected and, for negative answers, a verified counterexample certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.certificates import (
    ContainmentCounterexample,
    counterexample_from_witness,
    uniform_counterexample,
)
from repro.core.encoding import MpiEncoding, encode_many, encode_most_general
from repro.core.probe_tuples import iter_probe_tuples
from repro.diophantine.bounds import solution_component_bound
from repro.diophantine.solver import (
    MpiDecision,
    decide_mpi,
    decide_mpi_via_lp,
    witness_from_linear_solution,
)
from repro.exceptions import ContainmentError, EnumerationBudgetError
from repro.faults.runtime import TICK_INTERVAL, deadline_handle
from repro.queries.cq import ConjunctiveQuery
from repro.relational.terms import Term

__all__ = [
    "BagContainmentResult",
    "decide_bag_containment",
    "is_bag_contained",
    "are_bag_equivalent",
    "decide_via_most_general_probe",
    "decide_via_all_probes",
    "decide_via_bounded_guess",
    "strategy_names",
    "STRATEGIES",
]

#: Names of the decision strategies.
STRATEGIES = ("most-general", "all-probes", "bounded-guess")


@dataclass(frozen=True)
class BagContainmentResult:
    """Outcome of a bag-containment decision.

    ``encodings`` contains one :class:`MpiEncoding` per probe tuple the
    strategy inspected (a single one for the default strategy);
    ``mpi_decisions`` the corresponding solver outcomes, where available.
    """

    contained: bool
    containee: ConjunctiveQuery
    containing: ConjunctiveQuery
    strategy: str
    reason: str
    encodings: tuple[MpiEncoding, ...] = ()
    mpi_decisions: tuple[MpiDecision, ...] = ()
    counterexample: ContainmentCounterexample | None = None
    failing_probe: tuple[Term, ...] | None = None
    verified: bool = field(default=False)

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return self.contained

    def explain(self) -> str:
        """A human-readable explanation of the verdict."""
        verdict = "⊑b" if self.contained else "⋢b"
        lines = [f"{self.containee.name} {verdict} {self.containing.name} [{self.strategy}]: {self.reason}"]
        if self.counterexample is not None:
            lines.append("counterexample: " + self.counterexample.describe())
        return "\n".join(lines)


def _probe_text(probe: Sequence[Term]) -> str:
    return f"({', '.join(str(t) for t in probe)})"


#: One probe's MPI settled: the solver outcome (if a solver ran), a natural
#: witness when the probe refutes containment, and the refutation's reason.
Settle = Callable[[MpiEncoding], tuple[MpiDecision | None, tuple[int, ...] | None, str]]


def _walk(
    containee: ConjunctiveQuery,
    containing: ConjunctiveQuery,
    strategy: str,
    encodings: Iterable[MpiEncoding],
    settle: Settle,
    contained_reason: str,
    verify: bool,
) -> BagContainmentResult:
    """The probe walk every strategy shares (Theorem 3.1).

    Each probe is refuted outright when it is not unifiable with the
    containing head (condition (1)); otherwise *settle* looks for a solution
    of its MPI.  The first refuting probe ends the walk with a counterexample
    bag, replayed when *verify* is set; a walk with no refuting probe proves
    containment.
    """
    inspected: list[MpiEncoding] = []
    decisions: list[MpiDecision] = []
    for encoding in encodings:
        inspected.append(encoding)
        decision: MpiDecision | None = None
        if not encoding.probe_unifiable_with_containing:
            counterexample = uniform_counterexample(encoding)
            if strategy == "most-general":
                reason = "the most-general probe tuple is not unifiable with the head of the containing query"
            else:
                reason = f"probe tuple {_probe_text(encoding.probe)} is not unifiable with the containing head"
        else:
            decision, witness, reason = settle(encoding)
            if decision is not None:
                decisions.append(decision)
            if witness is None:
                continue
            counterexample = counterexample_from_witness(encoding, witness)

        verified = verify and counterexample.verify(containee, containing)
        if verify and not verified:
            raise ContainmentError(
                "internal error: a negative verdict produced a counterexample that does not verify"
            )
        return BagContainmentResult(
            contained=False,
            containee=containee,
            containing=containing,
            strategy=strategy,
            reason=reason,
            encodings=(encoding,),
            mpi_decisions=(decision,) if decision is not None else (),
            counterexample=counterexample,
            failing_probe=encoding.probe,
            verified=verified,
        )

    return BagContainmentResult(
        contained=True,
        containee=containee,
        containing=containing,
        strategy=strategy,
        reason=contained_reason,
        encodings=tuple(inspected),
        mpi_decisions=tuple(decisions),
    )


def _solve(use_lp: bool, solvable_reason: Callable[[MpiEncoding], str]) -> Settle:
    """Settle a probe with the Diophantine solver (Theorem 4.2)."""

    def settle(encoding: MpiEncoding) -> tuple[MpiDecision, tuple[int, ...] | None, str]:
        decision = decide_mpi_via_lp(encoding.inequality) if use_lp else decide_mpi(encoding.inequality)
        if not decision.solvable:
            return decision, None, ""
        assert decision.witness is not None
        return decision, decision.witness, solvable_reason(encoding)

    return settle


def decide_via_most_general_probe(
    containee: ConjunctiveQuery,
    containing: ConjunctiveQuery,
    use_lp: bool = False,
    verify_counterexamples: bool = True,
) -> BagContainmentResult:
    """Theorem 5.3: decide containment through the most-general probe tuple only."""
    containee.require_projection_free()
    return _walk(
        containee,
        containing,
        "most-general",
        (encode_most_general(containee, containing),),
        _solve(
            use_lp,
            lambda encoding: "the associated monomial-polynomial inequality admits a Diophantine solution",
        ),
        "the associated monomial-polynomial inequality has no Diophantine solution",
        verify_counterexamples,
    )


def decide_via_all_probes(
    containee: ConjunctiveQuery,
    containing: ConjunctiveQuery,
    use_lp: bool = False,
    verify_counterexamples: bool = True,
) -> BagContainmentResult:
    """Corollary 3.1: decide containment by checking one MPI per probe tuple."""
    containee.require_projection_free()
    return _walk(
        containee,
        containing,
        "all-probes",
        encode_many(containee, containing, iter_probe_tuples(containee)),
        _solve(
            use_lp,
            lambda encoding: (
                f"the inequality at probe tuple {_probe_text(encoding.probe)} admits a Diophantine solution"
            ),
        ),
        "no probe tuple yields a solvable monomial-polynomial inequality",
        verify_counterexamples,
    )


def _bounded_vectors(dimension: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Enumerate natural vectors of the given dimension with component sum ≤ bound."""

    def recurse(prefix: tuple[int, ...], remaining: int, positions_left: int) -> Iterator[tuple[int, ...]]:
        if positions_left == 0:
            yield prefix
            return
        for value in range(remaining + 1):
            yield from recurse(prefix + (value,), remaining - value, positions_left - 1)

    yield from recurse((), bound, dimension)


def decide_via_bounded_guess(
    containee: ConjunctiveQuery,
    containing: ConjunctiveQuery,
    bound: int | None = None,
    max_candidates: int = 2_000_000,
    verify_counterexamples: bool = True,
) -> BagContainmentResult:
    """Theorem 5.1: the guess-&-check criterion run deterministically.

    For every probe tuple ``t`` the procedure enumerates the natural vectors
    ``d`` with component sum at most *bound* (by default the Lemma 5.1 bound
    ``6·n³·φ`` of the associated system) and declares non-containment when
    some ``d`` satisfies ``(e − e_h)ᵀ·d > 0`` for **every** containment
    mapping ``h``.  The counterexample bag is then built directly from ``d``
    through the Theorem 4.1 construction.

    The enumeration is exponential; *max_candidates* protects against
    accidental use on large instances by raising :class:`ContainmentError`,
    and an ambient deadline is polled every :data:`TICK_INTERVAL` candidates.
    """
    containee.require_projection_free()

    def guess(encoding: MpiEncoding) -> tuple[None, tuple[int, ...] | None, str]:
        system = encoding.inequality.to_linear_system()
        effective_bound = bound if bound is not None else solution_component_bound(system)
        dimension = encoding.dimension

        candidate_count_estimate = (effective_bound + 1) ** dimension
        if candidate_count_estimate > max_candidates:
            raise EnumerationBudgetError(
                f"bounded-guess enumeration would inspect about {candidate_count_estimate} vectors "
                f"(bound {effective_bound}, dimension {dimension}); "
                "use the most-general strategy or lower the bound explicitly"
            )

        tick = deadline_handle()
        countdown = TICK_INTERVAL if tick is not None else 0
        for candidate in _bounded_vectors(dimension, effective_bound):
            if countdown:
                countdown -= 1
                if not countdown:
                    assert tick is not None
                    tick()
                    countdown = TICK_INTERVAL
            if all(value == 0 for value in candidate):
                continue
            if system.is_solution(candidate):
                return (
                    None,
                    witness_from_linear_solution(encoding.inequality, candidate),
                    f"the bounded vector {candidate} violates every containment-mapping inequality "
                    f"at probe tuple {_probe_text(encoding.probe)}",
                )
        return None, None, ""

    return _walk(
        containee,
        containing,
        "bounded-guess",
        encode_many(containee, containing, iter_probe_tuples(containee)),
        guess,
        "no bounded natural vector violates the containment-mapping inequalities",
        verify_counterexamples,
    )


def strategy_names() -> tuple[str, ...]:
    """Every strategy name, default first."""
    return STRATEGIES


def decide_bag_containment(
    containee: ConjunctiveQuery,
    containing: ConjunctiveQuery,
    strategy: str = "most-general",
    use_lp: bool = False,
    verify_counterexamples: bool = True,
    max_candidates: int | None = None,
) -> BagContainmentResult:
    """Decide ``containee ⊑b containing`` with the requested strategy.

    The containee must be projection-free; the containing query is an
    arbitrary CQ.  See the module docstring for the strategies.
    ``use_lp`` applies to the solver strategies and ``max_candidates`` caps
    the bounded-guess enumeration; each is ignored by the other strategies.
    """
    if strategy == "most-general":
        return decide_via_most_general_probe(containee, containing, use_lp, verify_counterexamples)
    if strategy == "all-probes":
        return decide_via_all_probes(containee, containing, use_lp, verify_counterexamples)
    if strategy == "bounded-guess":
        if max_candidates is None:
            return decide_via_bounded_guess(
                containee, containing, verify_counterexamples=verify_counterexamples
            )
        return decide_via_bounded_guess(
            containee,
            containing,
            max_candidates=max_candidates,
            verify_counterexamples=verify_counterexamples,
        )
    raise ContainmentError(f"unknown strategy {strategy!r}; expected one of {strategy_names()}")


def is_bag_contained(
    containee: ConjunctiveQuery, containing: ConjunctiveQuery, strategy: str = "most-general"
) -> bool:
    """Boolean shortcut for :func:`decide_bag_containment`."""
    return decide_bag_containment(containee, containing, strategy=strategy).contained


def are_bag_equivalent(first: ConjunctiveQuery, second: ConjunctiveQuery) -> bool:
    """Bag equivalence of two projection-free CQs (containment both ways)."""
    return is_bag_contained(first, second) and is_bag_contained(second, first)
