"""Runtime hooks for compile-time plan verification.

The soundness verifier of :mod:`repro.analysis.soundness` can run in two
ways: exhaustively from tests, or *online* — every plan the engine compiles
is verified the moment it is built or retrieved.  The online mode is controlled here, through one context-local
flag that :class:`repro.session.Session` sets when constructed with
``debug_verify_plans=True`` (and the fuzz runner sets for verified
campaigns).

This module is deliberately dependency-free (stdlib only): the engine
modules import it at module level, and the verifier itself — which imports
the engine — is loaded lazily on the first actual check, so no import cycle
can form.  The counters are process-global, so a campaign can report how
many plans were verified across every backend it drove.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar, Token
from typing import Iterator

__all__ = [
    "check_plan",
    "debug_verify_plans",
    "reset_verification_counts",
    "set_enabled",
    "verification_counts",
    "verification_enabled",
]

#: Context-local switch: when true, the engine verifies every plan it
#: compiles the moment it is built.
_DEBUG_VERIFY: ContextVar[bool] = ContextVar("repro_debug_verify_plans", default=False)

#: Process-global counters: [plans verified, violations found].  Violations
#: also raise, so the second entry is normally zero; it is reported by
#: verified fuzz campaigns.
_COUNTS: list[int] = [0, 0]  # lint: disable=global-mutable-state -- deliberate cross-backend counters, reset via reset_verification_counts()


def verification_enabled() -> bool:
    """Whether online plan verification is active in this context."""
    return _DEBUG_VERIFY.get()


def set_enabled(enabled: bool = True) -> Token:
    """Set the context-local verification flag; returns the reset token."""
    return _DEBUG_VERIFY.set(enabled)


def reset(token: Token) -> None:
    """Restore the verification flag from a :func:`set_enabled` token."""
    _DEBUG_VERIFY.reset(token)


@contextmanager
def debug_verify_plans(enabled: bool = True) -> Iterator[None]:
    """Enable (or disable) online verification for a ``with`` block."""
    token = _DEBUG_VERIFY.set(enabled)
    try:
        yield
    finally:
        _DEBUG_VERIFY.reset(token)


def verification_counts() -> tuple[int, int]:
    """``(plans verified, violations)`` so far."""
    return (_COUNTS[0], _COUNTS[1])


def reset_verification_counts() -> None:
    """Zero the process-global verification counters (tests and campaigns)."""
    _COUNTS[0] = _COUNTS[1] = 0


def check_plan(plan, source_atoms=None, fixed_variables=None, dictionary=None) -> None:
    """Verify one compiled plan, raising on any violation.

    Called by the backends right after plan construction/retrieval when
    :func:`verification_enabled`.
    """
    from repro.analysis.soundness import verify_plan
    from repro.exceptions import PlanVerificationError

    violations = verify_plan(
        plan,
        source_atoms=source_atoms,
        fixed_variables=fixed_variables,
        dictionary=dictionary,
    )
    _COUNTS[0] += 1
    if violations:
        _COUNTS[1] += len(violations)
        raise PlanVerificationError(
            f"plan failed soundness verification with {len(violations)} violation(s):\n"
            + "\n".join("  " + violation.describe() for violation in violations),
            violations=tuple(violations),
        )
