"""The session-centric service API: decision, evaluation, verification.

One :class:`Session` object owns its engine backend, its
:class:`~repro.engine.EngineCache`, its strategy selection and its limits,
and exposes every workload of the library behind a uniform facade::

    from repro.session import Session

    session = Session(backend="interned")
    outcome = session.decide(q1, q2)           # bag containment
    outcome.verdict, outcome.certificate, outcome.elapsed, outcome.cache

    for outcome in session.batch(requests):    # streaming, plan-amortised
        ...

Sessions replace the process-global mutable defaults of earlier API
generations: resolution is :mod:`contextvars`-backed, so concurrent threads
and tasks can hold different sessions (different backends, different
caches) without interference.  The legacy top-level functions survive as
deprecation shims over a default module session (:mod:`repro.session.shims`);
new backends and strategies plug in through the registries
(:mod:`repro.session.registry`) without edits to core modules.
"""

from repro.session.registry import (
    BackendFactory,
    StrategyFn,
    backend_names,
    register_backend,
    register_strategy,
    strategy_names,
)
from repro.session.requests import (
    CONTAINMENT_SEMANTICS,
    EVALUATION_SEMANTICS,
    ContainmentRequest,
    EvaluationRequest,
    MpiRequest,
    Outcome,
)
from repro.session.session import (
    Limits,
    Session,
    SessionSpec,
    current_session,
    default_session,
    use_session,
)

__all__ = [
    "BackendFactory",
    "CONTAINMENT_SEMANTICS",
    "ContainmentRequest",
    "EVALUATION_SEMANTICS",
    "EvaluationRequest",
    "Limits",
    "MpiRequest",
    "Outcome",
    "Session",
    "SessionSpec",
    "StrategyFn",
    "backend_names",
    "current_session",
    "default_session",
    "register_backend",
    "register_strategy",
    "strategy_names",
    "use_session",
]
