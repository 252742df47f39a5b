"""Typed requests and the uniform :class:`Outcome` of the session API.

Every service call of a :class:`~repro.session.Session` is described by a
small frozen request dataclass — :class:`ContainmentRequest`,
:class:`EvaluationRequest`, :class:`MpiRequest` — and answered with an
:class:`Outcome` that uniformly carries the verdict, the certificate (when
one exists), the wall-clock timing, and the per-call cache-statistics delta
of the session's engine cache.  Requests are plain values: they can be
built ahead of time, shipped over a queue, logged, and replayed, which is
what :meth:`Session.batch` streams over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.exceptions import SessionError
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.instances import BagInstance, SetInstance
from repro.relational.terms import Term

__all__ = [
    "CONTAINMENT_SEMANTICS",
    "EVALUATION_SEMANTICS",
    "ContainmentRequest",
    "EvaluationRequest",
    "MpiRequest",
    "Outcome",
]

#: The semantics a containment decision can be requested under.
CONTAINMENT_SEMANTICS = ("bag", "set", "bag-set")

#: The semantics a query evaluation can be requested under.
EVALUATION_SEMANTICS = ("bag", "set", "bag-set")


@dataclass(frozen=True)
class ContainmentRequest:
    """Decide ``containee ⊑ containing`` under the requested semantics.

    ``strategy`` only applies to bag semantics (the paper's procedure); set
    and bag-set containment have a single decision path each.
    ``verify_certificates`` re-checks negative bag verdicts by replaying the
    counterexample through direct bag evaluation.
    """

    containee: ConjunctiveQuery
    containing: ConjunctiveQuery
    semantics: str = "bag"
    strategy: str = "most-general"
    verify_certificates: bool = True

    def __post_init__(self) -> None:
        if self.semantics not in CONTAINMENT_SEMANTICS:
            raise SessionError(
                f"unknown containment semantics {self.semantics!r}; "
                f"expected one of {CONTAINMENT_SEMANTICS}"
            )


@dataclass(frozen=True)
class EvaluationRequest:
    """Evaluate *query* on *instance* under the requested semantics.

    ``query`` may be a CQ or a UCQ.  Bag semantics needs a
    :class:`BagInstance`; set and bag-set semantics accept either (a bag is
    collapsed to its support, matching the paper's conventions).  With
    ``answer`` set, only that tuple's multiplicity / membership is computed.
    """

    query: ConjunctiveQuery | UnionOfConjunctiveQueries
    instance: BagInstance | SetInstance
    semantics: str = "bag"
    answer: tuple[Term, ...] | None = None

    def __post_init__(self) -> None:
        if self.semantics not in EVALUATION_SEMANTICS:
            raise SessionError(
                f"unknown evaluation semantics {self.semantics!r}; "
                f"expected one of {EVALUATION_SEMANTICS}"
            )
        if self.answer is not None:
            object.__setattr__(self, "answer", tuple(self.answer))


@dataclass(frozen=True)
class MpiRequest:
    """Encode (and optionally decide) the MPI of a containment instance.

    Without ``probe`` the most-general probe tuple (Theorem 5.3) is used.
    With ``decide=True`` the encoded inequality is also run through the
    exact Diophantine solver.
    """

    containee: ConjunctiveQuery
    containing: ConjunctiveQuery
    probe: tuple[Term, ...] | None = None
    decide: bool = False

    def __post_init__(self) -> None:
        if self.probe is not None:
            object.__setattr__(self, "probe", tuple(self.probe))


@dataclass(frozen=True)
class Outcome:
    """The uniform answer of every session service call.

    Attributes
    ----------
    request:
        The request this outcome answers (one of the dataclasses above, a
        fuzz :class:`~repro.verify.CaseRequest`, or a short string
        tag for convenience calls such as ``fuzz``).
    value:
        The full native result object (a
        :class:`~repro.core.decision.BagContainmentResult`, an
        :class:`~repro.evaluation.AnswerBag`, an
        :class:`~repro.core.encoding.MpiEncoding`, a
        :class:`~repro.core.spectrum.ContainmentSpectrum`, an
        :class:`~repro.verify.OracleReport`, a
        :class:`~repro.verify.CaseResult`, a
        :class:`~repro.verify.CampaignReport`, …).
    verdict:
        The boolean essence of the result where one exists (containment
        holds, MPI solvable, substitution safe, campaign clean); ``None``
        for pure computations such as evaluation.
    certificate:
        The witness backing the verdict, when the decision path produces
        one (a counterexample bag, a containment mapping, a Diophantine
        witness).
    elapsed:
        Wall-clock seconds spent inside the session on this call.  It is
        timing metadata only: no digest, verdict or certificate reads it.
    cache:
        The session cache's ``(hits, misses, evictions)`` delta per layer
        for this call — what the call itself did to the cache.
    error:
        ``None`` for successful calls.  :meth:`Session.batch` with
        ``capture_errors=True`` records a failed request's exception here
        instead of raising, so one poisoned request cannot kill a stream.
    degraded:
        ``None`` for full-fidelity answers.  A short reason tag when the
        hardened runtime degraded the call honestly instead of answering:
        ``"deadline"`` (the wall-clock budget expired mid-plan; ``verdict``
        is ``None`` — *unknown*, never a guess — and ``elapsed`` holds the
        partial timing) or ``"quarantined"`` (a parallel batch isolated
        this request after repeated worker crashes; ``error`` carries the
        worker-side failure).
    """

    request: Any
    value: Any
    verdict: bool | None = None
    certificate: Any | None = None
    elapsed: float = 0.0
    cache: Mapping[str, tuple[int, int, int]] = field(default_factory=dict)
    error: str | None = None
    degraded: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def explain(self) -> str:
        """A one-line human-readable summary of the outcome."""
        if self.error is not None:
            tag = f" [{self.degraded}]" if self.degraded is not None else ""
            return f"error after {self.elapsed * 1000:.1f}ms{tag}: {self.error}"
        if self.degraded is not None:
            return f"degraded ({self.degraded}) after {self.elapsed * 1000:.1f}ms"
        verdict = "" if self.verdict is None else f" verdict={self.verdict}"
        certified = "" if self.certificate is None else " (certified)"
        return f"{type(self.value).__name__}{verdict}{certified} in {self.elapsed * 1000:.1f}ms"
