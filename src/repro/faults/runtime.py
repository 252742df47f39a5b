"""Deadline propagation and the engine driver-loop tick protocol.

A deadline is a monotonic-clock timestamp published through a ContextVar by
:func:`deadline_scope`; the engine driver loops poll it every
:data:`TICK_INTERVAL` rows through the handle returned by
:func:`tick_handle` and raise
:class:`~repro.exceptions.DeadlineExceeded` when it has passed.  The session
layer converts that exception into an honest degraded Outcome.

The integration pattern keeps the inactive cost at one falsy integer test
per loop iteration::

    tick = tick_handle()          # None when no deadline/faults are armed
    countdown = TICK_INTERVAL if tick is not None else 0
    while ...:                    # the hot loop
        if countdown:             # 0 when inactive: single falsy test
            countdown -= 1
            if not countdown:
                tick()            # may sleep (injected latency) or raise
                countdown = TICK_INTERVAL

``tick_handle`` itself applies any ``executor.start`` injected latency and
performs one up-front deadline check, so even an execution that never
reaches :data:`TICK_INTERVAL` rows observes an already-expired deadline.
Loops outside the engine (the MPI encoding's mapping loop) use the same
countdown with :func:`deadline_handle`, which polls the deadline only and
leaves the ``executor.*`` fault sites to the engine.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator

from repro.exceptions import DeadlineExceeded
from repro.faults.plan import _ACTIVE

__all__ = [
    "TICK_INTERVAL",
    "check_deadline",
    "deadline_handle",
    "deadline_scope",
    "session_entry",
    "tick_handle",
]

#: Rows between deadline polls in the engine driver loops.  Small enough to
#: bound overshoot on row-heavy plans, large enough to amortise the
#: monotonic-clock read.
TICK_INTERVAL = 64

_DEADLINE: ContextVar[float | None] = ContextVar("repro_deadline", default=None)


@contextmanager
def deadline_scope(deadline_ms: float | None) -> Iterator[None]:
    """Publish a wall-clock budget for the dynamic extent of the block.

    ``None`` is a no-op, so callers thread an optional ``Limits.deadline_ms``
    straight through.  Scopes nest; the innermost one wins, which lets a
    sub-operation tighten (but not outlive) its caller's budget.
    """
    if deadline_ms is None:
        yield
        return
    token = _DEADLINE.set(time.monotonic() + deadline_ms / 1000.0)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def check_deadline() -> None:
    """Raise :class:`DeadlineExceeded` if the ambient deadline has passed."""
    deadline = _DEADLINE.get()
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlineExceeded("wall-clock deadline exceeded")


def session_entry() -> None:
    """The ``session.execute`` site: request admission inside the deadline.

    Called by ``Session._execute`` right after the deadline scope opens and
    before any memo lookup or engine work.  Applies injected admission
    latency, then checks the deadline — so a keyed latency rule degrades a
    request deterministically, independent of cache state or pool
    scheduling.  Unarmed cost: two ContextVar reads per request.
    """
    active = _ACTIVE.get()
    if active is not None:
        rule = active.check("session.execute")
        if rule is not None and rule.delay_ms > 0:
            time.sleep(rule.delay_ms / 1000.0)
    check_deadline()


def tick_handle() -> Callable[[], None] | None:
    """The per-execution tick callable, or ``None`` when nothing is armed.

    Fetched once at the start of each engine driver-loop execution.  With no
    ambient deadline and no armed fault plan watching the executor sites,
    this is two ContextVar reads returning ``None`` — the countdown pattern
    then skips all per-iteration work.
    """
    deadline = _DEADLINE.get()
    active = _ACTIVE.get()
    if active is not None:
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded("wall-clock deadline exceeded")
        start_rule = active.check("executor.start")
        if start_rule is not None and start_rule.delay_ms > 0:
            time.sleep(start_rule.delay_ms / 1000.0)
        if not active.watches("executor.tick"):
            active = None
    if deadline is None and active is None:
        return None
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlineExceeded("wall-clock deadline exceeded")

    def tick() -> None:
        if active is not None:
            rule = active.check("executor.tick")
            if rule is not None and rule.delay_ms > 0:
                time.sleep(rule.delay_ms / 1000.0)
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded("wall-clock deadline exceeded")

    return tick


def deadline_handle() -> Callable[[], None] | None:
    """:func:`check_deadline` when a deadline is armed, else ``None``.

    The countdown-pattern handle for loops outside the engine: one
    ContextVar read when no deadline is armed, and one up-front check when
    one is, so a budget already spent before the loop is observed at once.
    """
    if _DEADLINE.get() is None:
        return None
    check_deadline()
    return check_deadline
