"""Parallel sharded execution: one request stream, many worker processes.

The decision procedure is the kind of primitive a query optimizer calls
thousands of times per workload (view selection, rewrite enumeration), and
one Python process tops out at one core.  This module fans a request
stream across a ``multiprocessing`` pool while keeping the guarantees the
serial path gives.  :func:`parallel_batch` is the one worker-pool harness:
``Session.batch(jobs=N)``, ``repro decide --batch``, ``repro chaos`` and
the fuzz campaign runner (whose cases are session requests too) all run on
it.

**Determinism.**  Requests are sharded into contiguous chunks and results
stream back to the caller **in request order**, no matter which worker
finished first.  Verdicts and certificates are pure functions of the
request, so the parallel outcome stream is identical to the serial one.

**Work stealing.**  Chunks are dispatched to workers as they free up (the
pool's shared task queue), so a skewed workload — a few expensive
requests among many cheap ones — balances automatically.
:func:`default_chunk_size` aims at several chunks per worker: small enough
to steal, large enough to amortise IPC.

**Session rehydration.**  Sessions own engine caches full of compiled
plans; shipping one to a worker would serialize the whole cache.  Instead
each worker rehydrates a fresh twin from the parent session's picklable
:class:`~repro.session.SessionSpec` fingerprint (pool initializer), runs
its shard against its own cache, and ships back outcomes plus a
:func:`~repro.engine.cache.snapshot_delta` of what the shard did to that
cache.  The parent folds the deltas into its own cache statistics
(:meth:`~repro.engine.cache.EngineCache.absorb_delta`) exactly once per
shard, so fleet-wide stats stay observable in one place; persistent-tier
counters travel the same way as the ``persist`` / ``persist-health``
pseudo-layers.

**Batch-stream survival.**  :func:`parallel_batch` schedules each shard as
its own pool task and supervises the handles directly.  A shard whose
worker crashes (or exceeds ``task_timeout``) is retried once on another
worker; a shard that keeps failing is bisected until the poison request is
isolated.  Under ``capture_errors=True`` the poison request becomes an
honest quarantined :class:`~repro.session.Outcome`
(``degraded="quarantined"``) and **every other request still completes, in
order, with its cache delta folded in exactly once**; otherwise the
original worker-side exception re-raises as :class:`ParallelError` with
the failing request's index and fingerprint in the message and the
original traceback chained as its ``__cause__``.

**Clean shutdown.**  Worker-side failures — including
``KeyboardInterrupt`` — are caught *inside* the worker and shipped back as
values, so the pool never hangs on a dead worker; the parent re-raises
(``KeyboardInterrupt`` as itself, anything else as
:class:`~repro.exceptions.ParallelError`) and the pool is terminated and
joined before the exception propagates.  Closing the outcome iterator
early (e.g. a time budget) tears the pool down the same way.

When to parallelise: memoisation beats parallelism on repetitive streams
(a repeated request is a cache hit in one process but a re-computation in
every worker shard), so reach for ``jobs=`` when the stream is dominated
by *distinct* requests and for ``memoize`` when it repeats itself.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import multiprocessing
import multiprocessing.pool
import os
import pickle
import time
import traceback
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from repro.engine.cache import merge_snapshots, snapshot_delta
from repro.engine.fingerprints import persistent_digest
from repro.exceptions import FaultInjected, ParallelError
from repro.faults.plan import check as fault_check
from repro.faults.plan import request_scope, use_faults
from repro.session.requests import Outcome
from repro.session.session import Session, SessionSpec

__all__ = [
    "default_chunk_size",
    "merged_cache_stats",
    "parallel_batch",
    "resolve_jobs",
    "shard",
]

_T = TypeVar("_T")


#: Distinguishes absorb-delta tokens across parallel_batch calls (an ``id()``
#: would do until the allocator recycled it onto a later batch).
_BATCH_COUNTER = itertools.count(1)

_AUTO_SERIAL_WARNED = False

#: How long a supervising ``parallel_batch`` blocks on the next-to-yield
#: shard before sweeping every in-flight handle for completions/timeouts.
_POLL_INTERVAL = 0.05


def resolve_jobs(jobs: int | str) -> int:
    """Resolve a ``jobs=`` request — a positive int or ``"auto"`` — to a count.

    ``"auto"`` asks for one worker per available core.  On a single-core
    machine that degenerates to the serial path, which is the right call
    (a one-worker pool only adds rehydration and IPC overhead on top of the
    identical serial semantics) but easy to miss — so the fallback warns,
    once per process, instead of silently ignoring the parallelism request.
    """
    global _AUTO_SERIAL_WARNED
    if jobs == "auto":
        cores = os.cpu_count() or 1
        if cores <= 1:
            if not _AUTO_SERIAL_WARNED:
                _AUTO_SERIAL_WARNED = True
                warnings.warn(
                    "jobs='auto' found a single-core machine; "
                    "running the batch serially (warned once per process)",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return 1
        return cores
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ParallelError(f"jobs must be a positive int or 'auto', got {jobs!r}")
    if jobs < 1:
        raise ParallelError("jobs must be at least 1")
    return jobs


# --------------------------------------------------------------------- #
# Sharding
# --------------------------------------------------------------------- #
def default_chunk_size(total: int, jobs: int) -> int:
    """Requests per worker task: several chunks per worker, bounded for IPC.

    Aiming at ~4 chunks per worker keeps the pool's task queue non-empty
    long enough for work stealing to smooth skewed workloads, while the cap
    keeps per-task pickling overhead amortised over real work.
    """
    if total <= 0:
        return 1
    return max(1, min(32, -(-total // (jobs * 4))))


def shard(items: Sequence[_T], chunk_size: int) -> list[tuple[int, tuple[_T, ...]]]:
    """Split *items* into contiguous ``(start_index, chunk)`` shards."""
    if chunk_size < 1:
        raise ParallelError("chunk_size must be at least 1")
    return [
        (start, tuple(items[start : start + chunk_size]))
        for start in range(0, len(items), chunk_size)
    ]


# --------------------------------------------------------------------- #
# Worker failures as values
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class _WorkerFailure:
    """A worker-side failure shipped back as a value (never as a dead worker)."""

    kind: str  # "interrupt" | "error"
    message: str
    details: str
    #: The pickled original exception, when it round-trips; the parent
    #: revives it so ``raise ParallelError(...) from original`` preserves
    #: the real exception object across the process boundary.
    payload: bytes | None = None
    #: Absolute request index / fingerprint, when the failure is
    #: attributable to one request (set by :class:`_AnnotatedRequestError`).
    index: int | None = None
    fingerprint: str | None = None
    #: True when the *request itself* raised (decision-procedure error, not
    #: a harness/injected fault) — retrying a deterministic error is
    #: pointless, so the supervisor aborts like the serial path instead.
    request_error: bool = False


class _AnnotatedRequestError(Exception):
    """Worker-internal carrier tagging a failure with the request it hit."""

    def __init__(
        self,
        index: int,
        fingerprint: str,
        cause: BaseException,
        request_error: bool = False,
    ) -> None:
        super().__init__(repr(cause))
        self.index = index
        self.fingerprint = fingerprint
        self.cause = cause
        self.request_error = request_error


class _RemoteTraceback(Exception):
    """Renders a worker-side traceback under the chained :class:`ParallelError`."""

    def __init__(self, details: str) -> None:
        super().__init__(details)
        self.details = details

    def __str__(self) -> str:
        return "\n" + self.details


def _pickle_exception(error: BaseException) -> bytes | None:
    """The exception pickled, or ``None`` when it cannot round-trip."""
    try:
        blob = pickle.dumps(error)
        pickle.loads(blob)
    except Exception:  # noqa: BLE001 - any pickling failure means "not portable"
        return None
    return blob


def _request_fingerprint(request: Any) -> str:
    """A short stable identifier for a request in error messages."""
    try:
        return persistent_digest(request)[:16]
    except Exception:  # noqa: BLE001 - unfingerprintable requests fall back to their type
        return type(request).__name__


def _guarded_call(fn: Callable[[Any], Any], payload: Any) -> Any:
    """Run one task, converting every failure — even ``KeyboardInterrupt`` —
    into a :class:`_WorkerFailure` value.

    ``multiprocessing.Pool`` workers only survive ``Exception``; a
    ``BaseException`` escaping a task kills the worker and the lost task
    hangs the pool forever.  Catching everything here is what makes
    shutdown clean and testable.
    """
    try:
        return fn(payload)
    except _AnnotatedRequestError as annotated:
        cause = annotated.cause
        details = "".join(
            traceback.format_exception(type(cause), cause, cause.__traceback__)
        )
        return _WorkerFailure(
            "error",
            repr(cause),
            details,
            payload=_pickle_exception(cause),
            index=annotated.index,
            fingerprint=annotated.fingerprint,
            request_error=annotated.request_error,
        )
    except Exception as error:  # noqa: BLE001 - shipped to the parent
        return _WorkerFailure(
            "error", repr(error), traceback.format_exc(), payload=_pickle_exception(error)
        )
    except BaseException as error:  # noqa: BLE001 - incl. KeyboardInterrupt
        kind = "interrupt" if isinstance(error, KeyboardInterrupt) else "error"
        return _WorkerFailure(kind, repr(error), traceback.format_exc())


def _revive_cause(failure: _WorkerFailure) -> BaseException:
    """The exception to chain under a :class:`ParallelError` for *failure*.

    Preference order: the revived original exception (with the remote
    traceback attached as *its* cause so the full worker-side stack renders
    in the parent's traceback), else the remote-traceback carrier alone.
    """
    remote = _RemoteTraceback(failure.details) if failure.details else None
    cause: BaseException | None = None
    if failure.payload is not None:
        try:
            revived = pickle.loads(failure.payload)
        except Exception:  # noqa: BLE001 - stale/unloadable payloads degrade to the text form
            revived = None
        if isinstance(revived, BaseException):
            cause = revived
    if cause is None:
        return remote if remote is not None else _RemoteTraceback(failure.message)
    if remote is not None:
        cause.__cause__ = remote
    return cause


def _reraise(failure: _WorkerFailure) -> None:
    if failure.kind == "interrupt":
        raise KeyboardInterrupt(failure.message)
    where = ""
    if failure.index is not None:
        fingerprint = failure.fingerprint or "unfingerprinted"
        where = f" on request {failure.index} ({fingerprint})"
    raise ParallelError(f"worker failed{where}: {failure.message}") from _revive_cause(
        failure
    )


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork (where available) inherits the parent's imported modules; spawn
    # works too but re-imports from scratch.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# --------------------------------------------------------------------- #
# The Session.batch() worker path
# --------------------------------------------------------------------- #
#: The rehydrated per-process session of the current batch (pool initializer),
#: or the recorded rehydration failure.  An initializer must never raise: a
#: worker dying during bootstrap makes the pool respawn it in an unbounded
#: loop (the lost task is never executed, so the pool blocks forever) —
#: reachable e.g. when a hand-built spec names an unknown backend.  The
#: first task re-raises the recorded failure instead, which ships back to the
#: parent as a :class:`ParallelError`.
_WORKER_SESSION: Session | None = None
_WORKER_INIT_ERROR: str | None = None


def _batch_worker_init(spec: SessionSpec) -> None:
    global _WORKER_SESSION, _WORKER_INIT_ERROR
    try:
        _WORKER_SESSION = spec.build()
    except BaseException as error:  # noqa: BLE001 - see _WORKER_SESSION note
        _WORKER_INIT_ERROR = repr(error)


@dataclass(frozen=True)
class _ChunkResult:
    """One shard's outcomes plus what the shard did to the worker's cache."""

    start: int
    outcomes: tuple[Outcome, ...]
    cache_delta: Mapping[str, tuple[int, int, int]]
    elapsed: float


def _persist_counters(session: Session) -> tuple[int, int, int, int, int, int] | None:
    """The persistent tier's counters, or ``None`` when no tier is attached."""
    persistent = session.persistent
    if persistent is None:
        return None
    stats = persistent.stats
    return (
        stats.hits,
        stats.misses,
        stats.stores,
        stats.errors,
        stats.retries,
        stats.breaker_skipped,
    )


def _persist_delta(
    session: Session, before: tuple[int, int, int, int, int, int] | None
) -> dict[str, tuple[int, int, int]]:
    """The shard's persistent-tier counter movement as pseudo-layers.

    ``EngineCache.absorb_delta`` skips layer names it does not own, so
    these ride inside the ordinary cache delta; the parent folds them into
    its own :class:`~repro.engine.persist.PersistStats` on absorption.
    """
    after = _persist_counters(session)
    if after is None or before is None:
        return {}
    moved = tuple(now - then for now, then in zip(after, before))
    if not any(moved):
        return {}
    return {
        "persist": (moved[0], moved[1], moved[2]),
        "persist-health": (moved[3], moved[4], moved[5]),
    }


def _fold_persist_delta(
    session: Session, delta: Mapping[str, tuple[int, int, int]]
) -> None:
    """Fold a shard's ``persist`` / ``persist-health`` pseudo-layers into the
    parent session's persistent-tier statistics (called once per absorbed
    shard, so the exactly-once guarantee extends to these counters)."""
    persistent = session.persistent
    if persistent is None:
        return
    hits, misses, stores = delta.get("persist", (0, 0, 0))
    errors, retries, breaker_skipped = delta.get("persist-health", (0, 0, 0))
    stats = persistent.stats
    stats.hits += hits
    stats.misses += misses
    stats.stores += stores
    stats.errors += errors
    stats.retries += retries
    stats.breaker_skipped += breaker_skipped


def _run_request_chunk(payload: tuple[int, tuple[Any, ...], bool]) -> _ChunkResult:
    start, requests, capture_errors = payload
    session = _WORKER_SESSION
    if session is None:
        raise ParallelError(
            "batch worker failed to rehydrate its session: "
            f"{_WORKER_INIT_ERROR or 'no session spec received'}"
        )
    before = session.cache.snapshot()
    persist_before = _persist_counters(session)
    started = time.perf_counter()
    outcomes: list[Outcome] = []
    # Arm the rehydrated session's fault plan around the whole loop (not
    # just inside submit/activate) so ``parallel.request`` faults can fire
    # *before* the session's error capture gets a chance to swallow them —
    # an injected crash must kill the task even under capture_errors.
    with use_faults(session.active_faults):
        for offset, request in enumerate(requests):
            index = start + offset
            with request_scope(index):
                rule = fault_check("parallel.request", key=index)
                if rule is not None:
                    if rule.action == "hang":
                        # Simulated hang: park well past any plausible
                        # task_timeout; the parent times the task out and
                        # reschedules the shard on another worker.
                        time.sleep((rule.delay_ms or 60_000.0) / 1000.0)
                    else:
                        raise _AnnotatedRequestError(
                            index,
                            _request_fingerprint(request),
                            FaultInjected(
                                f"injected worker crash (parallel.request, request {index})"
                            ),
                        )
                try:
                    outcome = (
                        session.submit_captured(request)
                        if capture_errors
                        else session.submit(request)
                    )
                except Exception as error:
                    raise _AnnotatedRequestError(
                        index, _request_fingerprint(request), error, request_error=True
                    ) from error
            outcomes.append(outcome)
    delta = snapshot_delta(session.cache.snapshot(), before)
    delta.update(_persist_delta(session, persist_before))
    return _ChunkResult(
        start=start,
        outcomes=tuple(outcomes),
        cache_delta=delta,
        elapsed=time.perf_counter() - started,
    )


@dataclass
class _Segment:
    """One contiguous shard under supervision: its requests and, once a
    worker delivered, its outcomes and cache delta."""

    start: int
    requests: tuple[Any, ...]
    #: Submissions so far; bisected children start at 1 (the parent shard
    #: already spent the retry), so they escalate straight to bisection.
    attempts: int = 0
    outcomes: tuple[Outcome, ...] | None = None
    cache_delta: Mapping[str, tuple[int, int, int]] | None = None


def _quarantined_outcome(request: Any, index: int, failure: _WorkerFailure) -> Outcome:
    fingerprint = failure.fingerprint or _request_fingerprint(request)
    return Outcome(
        request=request,
        value=None,
        error=(
            f"quarantined after repeated worker failure on request {index} "
            f"({fingerprint}): {failure.message}"
        ),
        degraded="quarantined",
    )


def parallel_batch(
    session: Session,
    requests: Sequence[Any],
    jobs: int,
    chunk_size: int | None = None,
    capture_errors: bool = False,
    task_timeout: float | None = None,
) -> Iterator[Outcome]:
    """Shard *requests* across *jobs* worker sessions; stream ordered outcomes.

    This is the engine behind ``Session.batch(requests, jobs=N)``.  Every
    worker rehydrates ``session.spec()`` (same backend, limits, memoisation
    and fault plan — fresh cache), shards are scheduled work-stealing
    style, and outcomes are yielded strictly in request order with each
    outcome's ``request`` field rebound to the caller's own object.  Worker
    cache deltas are folded into the parent session's statistics exactly
    once per shard as the results land.

    Survival: a shard whose worker crashes — or, with ``task_timeout`` set,
    exceeds its wall-clock bound (a hung worker) — is retried once on
    another worker, then bisected until the poison request is isolated.
    With ``capture_errors=True`` the poison request yields an honest
    ``degraded="quarantined"`` :class:`Outcome` while every other request
    completes normally; with ``capture_errors=False`` the stream aborts
    like the serial path, but the worker-side exception arrives as
    :class:`ParallelError` naming the request's index and fingerprint,
    with the original exception (or a remote-traceback carrier) chained as
    ``__cause__``.  A *request-level* exception (the decision procedure
    itself raising) is deterministic and is never retried: it aborts
    immediately under ``capture_errors=False`` and is captured worker-side
    otherwise.
    """
    requests = list(requests)
    if jobs <= 1 or len(requests) <= 1:
        # Not worth a pool; keep semantics by delegating to the serial path.
        yield from session.batch(requests, capture_errors=capture_errors)
        return
    batch_id = next(_BATCH_COUNTER)
    size = chunk_size if chunk_size is not None else default_chunk_size(len(requests), jobs)
    segments: dict[int, _Segment] = {}
    order: list[int] = []
    for start, chunk in shard(requests, size):
        segments[start] = _Segment(start=start, requests=chunk)
        order.append(start)
    guarded = functools.partial(_guarded_call, _run_request_chunk)
    spec = session.spec()
    context = _pool_context()
    workers = min(jobs, len(order))
    pool = context.Pool(
        processes=workers, initializer=_batch_worker_init, initargs=(spec,)
    )
    #: In-flight shards: start index -> (segment, async handle, submit time).
    #: At most one live handle per start; a timed-out handle is dropped
    #: here, so its late result (if the worker ever wakes) is discarded.
    active: dict[int, tuple[_Segment, multiprocessing.pool.AsyncResult[Any], float]] = {}

    def submit(segment: _Segment, count_attempt: bool = True) -> None:
        if count_attempt:
            segment.attempts += 1
        payload = (segment.start, segment.requests, capture_errors)
        handle = pool.apply_async(guarded, (payload,))
        active[segment.start] = (segment, handle, time.monotonic())

    def restart_pool() -> None:
        # A hung worker cannot be killed individually, and it wedges one
        # pool slot (worst case: every slot) so queued shards would starve
        # and spuriously time out.  Rebuilding the pool kills the hung
        # process; unfinished shards are resubmitted by the caller.
        nonlocal pool
        pool.terminate()
        pool.join()
        active.clear()
        pool = context.Pool(
            processes=workers, initializer=_batch_worker_init, initargs=(spec,)
        )

    def escalate(segment: _Segment, failure: _WorkerFailure) -> None:
        # Retry the whole shard once on another worker (a crashed worker's
        # pool slot is respawned); a shard that fails again is bisected so
        # the poison request isolates in O(log chunk) resubmissions.
        if segment.attempts < 2:
            submit(segment)
            return
        if len(segment.requests) > 1:
            mid = len(segment.requests) // 2
            left = _Segment(segment.start, segment.requests[:mid], attempts=1)
            right = _Segment(segment.start + mid, segment.requests[mid:], attempts=1)
            position = order.index(segment.start)
            segments[left.start] = left
            segments[right.start] = right
            order.insert(position + 1, right.start)
            submit(left)
            submit(right)
            return
        if capture_errors:
            segment.outcomes = (
                _quarantined_outcome(segment.requests[0], segment.start, failure),
            )
            segment.cache_delta = None
            return
        _reraise(failure)

    def handle_failure(segment: _Segment, failure: _WorkerFailure) -> None:
        if failure.kind == "interrupt":
            raise KeyboardInterrupt(failure.message)
        if failure.request_error and not capture_errors:
            # The request itself raised: deterministic, so retrying cannot
            # help — abort the stream like the serial path would.
            _reraise(failure)
        escalate(segment, failure)

    def sweep(block_on: int) -> None:
        # Block briefly on the next-to-yield shard, then settle every
        # in-flight handle that is ready or past its timeout.
        entry = active.get(block_on)
        if entry is not None:
            entry[1].wait(_POLL_INTERVAL)
        else:
            time.sleep(_POLL_INTERVAL / 5)
        now = time.monotonic()
        for start, (segment, handle, submitted_at) in list(active.items()):
            if handle.ready():
                del active[start]
                try:
                    result = handle.get()
                except Exception as error:  # noqa: BLE001 - e.g. an unpicklable result
                    result = _WorkerFailure("error", repr(error), traceback.format_exc())
                if isinstance(result, _WorkerFailure):
                    handle_failure(segment, result)
                elif segments.get(segment.start) is segment:
                    segment.outcomes = result.outcomes
                    segment.cache_delta = result.cache_delta
            elif task_timeout is not None and now - submitted_at > task_timeout:
                # The worker is hung (or the queue is starved behind one).
                # Rebuild the pool to kill the wedged process, escalate the
                # timed-out shard only, and resubmit every other unfinished
                # shard without charging its retry budget — an innocent
                # shard must never be quarantined for a neighbour's hang.
                restart_pool()
                handle_failure(
                    segment,
                    _WorkerFailure(
                        "error",
                        f"worker task exceeded task_timeout={task_timeout:g}s "
                        f"(shard [{segment.start}, {segment.start + len(segment.requests)}))",
                        "",
                    ),
                )
                for other_start in order:
                    other = segments[other_start]
                    if other.outcomes is None and other_start not in active:
                        submit(other, count_attempt=False)
                return

    clean_exit = False
    try:
        for start in list(order):
            submit(segments[start])
        cursor = 0
        while cursor < len(order):
            segment = segments[order[cursor]]
            if segment.outcomes is None:
                sweep(segment.start)
                continue
            if segment.cache_delta is not None:
                # Token per (batch, start, length): a shard retried after a
                # worker failure folds its delta in once, and a bisected
                # child at the parent's start never collides with it.
                token = ("batch", batch_id, segment.start, len(segment.requests))
                if session.cache.absorb_delta(segment.cache_delta, token=token):
                    _fold_persist_delta(session, segment.cache_delta)
            for offset, outcome in enumerate(segment.outcomes):
                original = requests[segment.start + offset]
                yield dataclasses.replace(outcome, request=original)
            cursor += 1
        pool.close()
        clean_exit = True
    finally:
        if not clean_exit:
            pool.terminate()
        pool.join()


def merged_cache_stats(outcomes: Iterable[Outcome]) -> dict[str, tuple[int, int, int]]:
    """Fold the per-outcome cache deltas of a batch into one fleet-wide snapshot.

    Serial and parallel streams merge to the same totals whenever the
    requests do not share cacheable work across shard boundaries (distinct
    pairs); on repetitive streams the serial path shows more hits — the
    memoisation-vs-parallelism trade-off the module docstring describes.
    """
    return merge_snapshots(outcome.cache for outcome in outcomes)
