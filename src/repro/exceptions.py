"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  Specific subclasses distinguish the layer the
error originates from (relational substrate, query model, Diophantine layer,
containment decision procedures, parsing, and the command line interface).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the library."""


class RelationalError(ReproError):
    """Errors raised by the relational substrate (terms, atoms, instances)."""


class ArityMismatchError(RelationalError):
    """An atom or fact was built with a number of terms different from the
    arity declared by its relation schema."""


class InvalidTermError(RelationalError):
    """A term of the wrong kind was supplied (e.g. a variable where a
    constant was required, or a non-term object altogether)."""


class SubstitutionError(RelationalError):
    """A substitution was applied or composed in an inconsistent way, for
    example when two bindings for the same variable conflict."""


class InstanceError(RelationalError):
    """A set or bag instance was constructed or updated inconsistently, for
    instance with a negative multiplicity."""


class QueryError(ReproError):
    """Errors raised by the query model."""


class NotProjectionFreeError(QueryError):
    """An operation that requires a projection-free conjunctive query was
    invoked on a query with existential variables."""


class UnificationError(QueryError):
    """A tuple of terms could not be unified with the free variables of a
    query (needed to ground a query on a probe tuple)."""


class ParseError(QueryError):
    """The datalog-style parser could not interpret its input."""


class DiophantineError(ReproError):
    """Errors raised by the Diophantine layer (monomials, polynomials, MPIs,
    linear systems)."""


class DimensionMismatchError(DiophantineError):
    """Two exponent vectors, or a vector and a system, have incompatible
    dimensions."""


class LinearSystemError(DiophantineError):
    """A homogeneous linear inequality system was malformed or a solver was
    asked for a witness of an infeasible system."""


class ContainmentError(ReproError):
    """Errors raised by the containment decision procedures."""


class EnumerationBudgetError(ContainmentError):
    """The bounded-guess strategy refused to enumerate: the candidate-vector
    count implied by the solution-size bound exceeds the caller's budget."""


class CertificateError(ContainmentError):
    """A counterexample certificate failed to verify, which indicates an
    internal inconsistency of the decision procedure."""


class WorkloadError(ReproError):
    """Errors raised by the workload generators."""


class VerifyError(ReproError):
    """Errors raised by the differential-verification subsystem (bad oracle
    or campaign configuration, malformed corpus files)."""


class SessionError(ReproError):
    """Errors raised by the session service facade (bad request shapes,
    unknown semantics, exhausted session limits)."""


class ParallelError(SessionError):
    """A sharded parallel execution failed inside a worker process.

    The message carries the worker-side exception's ``repr`` plus, when the
    worker could attribute the failure, the index and fingerprint of the
    failing request.  The worker's original exception (or, failing that, a
    carrier exception holding its formatted traceback) is chained as
    ``__cause__`` via ``raise ... from``."""


class DeadlineExceeded(SessionError):
    """A request exhausted its wall-clock budget (``Limits.deadline_ms``).

    Raised by the engine driver loops when the monotonic clock passes the
    request's deadline.  :class:`~repro.session.session.Session` converts it
    into an honest degraded :class:`~repro.session.requests.Outcome`
    (``verdict None``, ``degraded="deadline"``) instead of letting it escape.
    """


class FaultError(ReproError):
    """Errors raised by the fault-injection subsystem (:mod:`repro.faults`)."""


class FaultInjected(FaultError):
    """An injected fault fired (crash simulation at a registered site).

    Only ever raised while a :class:`~repro.faults.plan.FaultPlan` is armed;
    production code paths never construct it spontaneously."""


class TermIdOverflowError(ReproError):
    """A :class:`~repro.engine.interning.TermDictionary` ran out of id space.

    Packed signature keys shift each term id into its own fixed-width
    window, so ids at or beyond ``2**id_bits`` would silently collide with
    other ids inside one packed key.  The dictionary refuses to assign such
    an id instead; the attributes carry the computed bound.
    """

    def __init__(self, term: object, id_bits: int, capacity: int) -> None:
        super().__init__(
            f"term dictionary exhausted its {id_bits}-bit id space "
            f"({capacity} ids) interning {term!r}; packed signature keys "
            "would no longer be injective past this bound"
        )
        self.term = term
        self.id_bits = id_bits
        self.capacity = capacity


class AnalysisError(ReproError):
    """Errors raised by the static-analysis subsystem (:mod:`repro.analysis`)."""


class PlanVerificationError(AnalysisError):
    """A compiled plan failed soundness verification.

    ``violations`` carries the individual
    :class:`~repro.analysis.soundness.Violation` records the verifier
    established; the message summarises them.
    """

    def __init__(self, message: str, violations: tuple = ()) -> None:
        super().__init__(message)
        self.violations = tuple(violations)


class CliError(ReproError):
    """Errors raised by the command line interface."""
