"""The traced run's span recorder.

The recorder wraps the public functions of each layer, in memory, at the
module attribute where the caller looks them up (``repro.core.decision``
imports ``decide_mpi`` by name, so that is the attribute that is wrapped,
not the one in ``repro.diophantine.solver``).  Each call records a span:
name, start, end, parent span, request id, an error flag, and a count
derived from the result where the layer has one (containment mappings,
system rows, certificates).  A layer's self time is its span's duration
minus the durations of its direct children (calls are nested and
single-threaded, so children never overlap).

Nothing under ``src/`` is changed: the wrappers are installed for one
traced pass and removed afterwards.  A wrapped name that no longer exists
raises :class:`TracerError` at install time, and a span expected on a
workload that never fires is reported by :func:`missing_spans`, so a
refactor that moves a layer breaks the tracer visibly instead of silently
zeroing that layer's metric.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

ALL = frozenset({"mixed", "wide", "warm"})
#: The workloads with not-contained verdicts (witness and certificate code).
NEGATIVE = frozenset({"mixed", "warm"})


class TracerError(RuntimeError):
    """A wrapped name no longer exists (or is no longer callable)."""


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:attribute`` recorded as span *span*."""

    module: str
    attribute: str
    span: str
    #: Workloads on which this span must fire at least once per traced pass.
    required: frozenset[str]
    #: Maps the call's result to the count it adds, where the layer has one.
    count: Callable[[Any], int] | None = None


def _length(result: Any) -> int:
    return len(result)


def _one(result: Any) -> int:
    return 1


TARGETS = (
    Target("repro.session.session", "Session.decide", "session", ALL),
    Target("repro.engine.persist", "PersistentCache.load", "persist.load", frozenset({"warm"})),
    Target("repro.engine.persist", "PersistentCache.store", "persist.store", frozenset({"warm"})),
    Target("repro.core.encoding", "most_general_probe_tuple", "ground", ALL),
    Target("repro.queries.cq", "ConjunctiveQuery.ground", "ground", ALL),
    Target("repro.engine.batch", "ContainmentMappingBatcher.mappings", "engine", ALL, _length),
    Target("repro.core.encoding", "encode", "encoding", ALL),
    Target(
        "repro.diophantine.inequalities",
        "MonomialPolynomialInequality.to_linear_system",
        "diophantine.system",
        ALL,
        _length,
    ),
    Target("repro.core.decision", "decide_mpi", "diophantine.solver", ALL),
    Target(
        "repro.diophantine.solver",
        "witness_from_linear_solution",
        "diophantine.witness",
        NEGATIVE,
    ),
    Target("repro.diophantine.solver", "solve_strict_system", "linalg.fm", ALL),
    Target("repro.diophantine.solver", "lp_feasibility", "linalg.lp", frozenset()),
    Target(
        "repro.core.decision",
        "counterexample_from_witness",
        "certificates.build",
        NEGATIVE,
        _one,
    ),
    Target("repro.core.decision", "uniform_counterexample", "certificates.build", frozenset(), _one),
    Target(
        "repro.core.certificates",
        "ContainmentCounterexample.verify",
        "certificates.verify",
        NEGATIVE,
    ),
)

#: Layer (module) name -> the span names whose self time it owns.
LAYERS = {
    "session": ("session",),
    "engine.persist": ("persist.load", "persist.store"),
    "core.probe_tuples/queries": ("ground",),
    "engine": ("engine",),
    "core.encoding": ("encoding",),
    "diophantine": ("diophantine.system", "diophantine.solver", "diophantine.witness"),
    "linalg": ("linalg.fm", "linalg.lp"),
    "core.certificates": ("certificates.build", "certificates.verify"),
}


class Recorder:
    """Spans of one traced pass, kept in memory until the run writes them out.

    A span is the list ``[name, start, end, parent, request, error, count,
    child_seconds]``; ``parent`` is an index into :attr:`spans` or ``-1``.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.request = -1
        self._stack: list[int] = []

    def wrap(self, function: Callable[..., Any], target: Target) -> Callable[..., Any]:
        spans, stack, name, count = self.spans, self._stack, target.span, target.count
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            # The clock is read first and last, so the wrapper's own work
            # stays inside the span rather than in the unattributed share.
            start = clock()
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, start, 0.0, parent, self.request, False, 0, 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][7] += span[2] - span[1]
            if count is not None:
                span[6] = count(result)
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def write(self, path) -> None:
        """Write the spans out as JSON lines (one span per line)."""
        with open(path, "w") as handle:
            for index, (name, start, end, parent, request, error, count, _) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                            "error": error,
                            "count": count,
                        }
                    )
                    + "\n"
                )


def _resolve(target: Target) -> tuple[Any, str, Any]:
    """``(owner, attribute, current value)`` for *target*; raises if it is gone."""
    try:
        owner: Any = importlib.import_module(target.module)
    except ImportError as error:
        raise TracerError(f"cannot trace {target.module}: {error}") from error
    *path, leaf = target.attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TracerError(f"wrapped name {target.module}.{target.attribute} no longer exists")
    if leaf not in vars(owner):
        raise TracerError(f"wrapped name {target.module}.{target.attribute} no longer exists")
    value = vars(owner)[leaf]
    if not callable(value):
        raise TracerError(f"wrapped name {target.module}.{target.attribute} is not callable")
    return owner, leaf, value


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every :data:`TARGETS` entry for the enclosed block, then restore."""
    resolved = [(target, *_resolve(target)) for target in TARGETS]
    try:
        for target, owner, leaf, value in resolved:
            setattr(owner, leaf, recorder.wrap(value, target))
        yield recorder
    finally:
        for _, owner, leaf, value in reversed(resolved):
            setattr(owner, leaf, value)


def missing_spans(recorder: Recorder, workload: str) -> list[str]:
    """Span names required on *workload* that the recorder never saw."""
    seen = {span[0] for span in recorder.spans}
    required = {target.span for target in TARGETS if workload in target.required}
    return sorted(required - seen)


@dataclass
class SpanTotals:
    """Per span name: calls, errors, summed self seconds and summed count."""

    calls: int = 0
    errors: int = 0
    self_seconds: float = 0.0
    count: int = 0


def totals(recorders: Iterable[Recorder]) -> tuple[dict[str, SpanTotals], float]:
    """Per-span totals over *recorders*, and the summed duration of root spans."""
    by_name: dict[str, SpanTotals] = {}
    root_seconds = 0.0
    for recorder in recorders:
        for name, start, end, parent, _, error, count, child_seconds in recorder.spans:
            entry = by_name.setdefault(name, SpanTotals())
            duration = end - start
            entry.calls += 1
            entry.errors += int(error)
            entry.self_seconds += duration - child_seconds
            entry.count += count
            if parent < 0:
                root_seconds += duration
    return by_name, root_seconds
