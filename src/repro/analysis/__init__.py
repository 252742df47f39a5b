"""Static analysis for the repro engine and codebase.

Two halves live here:

:mod:`repro.analysis.soundness`
    The plan soundness verifier — :func:`verify_plan` proves a compiled
    :class:`~repro.engine.interned.InternedPlan` binding-safe,
    signature-correct, injective in its packed keys and a valid
    permutation of the query body.  :mod:`repro.analysis.hooks` runs it
    online behind ``Session(debug_verify_plans=True)``.

:mod:`repro.analysis.lint`
    A repo-wide AST lint framework with repro-specific rules (determinism
    hazards, global state), exposed as ``repro lint`` on the command line,
    which also runs the persist-schema lock check
    (:mod:`repro.analysis.schema_lock`).

The soundness names are re-exported lazily: the verifier imports the
engine, and the engine imports :mod:`repro.analysis.hooks`, so an eager
import here would cycle.
"""

from __future__ import annotations

from repro.analysis.hooks import (
    check_plan,
    debug_verify_plans,
    reset_verification_counts,
    verification_counts,
    verification_enabled,
)

__all__ = [
    "Violation",
    "check_plan",
    "debug_verify_plans",
    "reset_verification_counts",
    "verification_counts",
    "verification_enabled",
    "verify_plan",
]

_SOUNDNESS_EXPORTS = frozenset({"Violation", "verify_plan"})


def __getattr__(name: str):
    if name in _SOUNDNESS_EXPORTS:
        from repro.analysis import soundness

        return getattr(soundness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
