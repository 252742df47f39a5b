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

The active session is the only place that says which backend runs:
resolution is :mod:`contextvars`-backed, so concurrent threads and tasks can
hold different sessions (different backends, different caches) without
interference.  Code that runs outside any session uses the shared
process-wide ``interned`` instance.  The backend and strategy names are
fixed (:func:`backend_names`, :func:`strategy_names`).
"""

from types import MappingProxyType
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.decision import strategy_names
    from repro.engine.backends import backend_names
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
        use_session,
    )

#: Each exported name and the module that defines it (``repro._lazy``).
_EXPORTS = MappingProxyType(
    {
        "CONTAINMENT_SEMANTICS": "repro.session.requests",
        "ContainmentRequest": "repro.session.requests",
        "EVALUATION_SEMANTICS": "repro.session.requests",
        "EvaluationRequest": "repro.session.requests",
        "Limits": "repro.session.session",
        "MpiRequest": "repro.session.requests",
        "Outcome": "repro.session.requests",
        "Session": "repro.session.session",
        "SessionSpec": "repro.session.session",
        "backend_names": "repro.engine.backends",
        "current_session": "repro.session.session",
        "strategy_names": "repro.core.decision",
        "use_session": "repro.session.session",
    }
)

# Type checkers see the names through the `TYPE_CHECKING` imports above.
if not TYPE_CHECKING:
    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
