"""Tests for the parallel sharded batch layer (``repro.parallel``).

The contract under test: ``Session.batch(requests, jobs=N)`` yields the
same outcome stream as the serial path — same order, same verdicts,
certificates, values and captured errors — while sharding the work across
worker processes; worker cache deltas merge into the parent session; and
the pool shuts down cleanly on worker failures, including
``KeyboardInterrupt``.
"""

import multiprocessing
import pickle
import time

import pytest

from repro.engine.cache import EngineCache
from repro.exceptions import ParallelError, SessionError
from repro.parallel import (
    default_chunk_size,
    merged_cache_stats,
    pool_imap,
    shard,
)
from repro.session import ContainmentRequest, Limits, Session, SessionSpec
from repro.workloads.random_queries import random_adversarial_pair
from repro.workloads.scale import mixed_requests
from repro.workloads.structured import chain_containment_pair


def _poison_request() -> ContainmentRequest:
    """A request whose containee has existential variables: decide() raises."""
    containee, containing = chain_containment_pair(2)
    return ContainmentRequest(containing, containee)


def _assert_no_leaked_children() -> None:
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not multiprocessing.active_children(), "worker processes leaked"


# --------------------------------------------------------------------- #
# Serial/parallel equivalence (the 300-case property test)
# --------------------------------------------------------------------- #
CASES = 300

#: (strategy, backend) grid, matching the session-vs-legacy property test;
#: bounded-guess rides along on a slice of small pairs further down.
GRID = [
    ("most-general", "interned"),
    ("most-general", "naive"),
    ("all-probes", "interned"),
    ("all-probes", "naive"),
]


@pytest.mark.parametrize("grid_index", range(len(GRID)))
def test_parallel_batch_matches_serial_across_strategies_and_backends(grid_index):
    strategy, backend = GRID[grid_index]
    per_cell = CASES // len(GRID)
    seeds = range(grid_index * per_cell, (grid_index + 1) * per_cell)
    requests = [
        ContainmentRequest(
            *random_adversarial_pair(seed, num_atoms=3, head_size=2), strategy=strategy
        )
        for seed in seeds
    ]

    serial = list(Session(backend=backend).batch(requests))
    parallel = list(Session(backend=backend).batch(requests, jobs=3))

    assert len(parallel) == len(serial) == per_cell
    for index, (expected, actual) in enumerate(zip(serial, parallel)):
        context = f"{strategy}/{backend} seed={seeds[index]}"
        assert actual.request is requests[index], context
        assert actual.verdict == expected.verdict, context
        assert actual.certificate == expected.certificate, context
        assert actual.value == expected.value, context
        assert actual.error is None and expected.error is None, context


def test_parallel_batch_matches_serial_with_bounded_guess():
    """The enumeration strategy agrees too; budget errors match by string."""
    requests = [
        ContainmentRequest(
            *random_adversarial_pair(seed, num_atoms=2, head_size=1),
            strategy="bounded-guess",
        )
        for seed in range(24)
    ]
    serial = list(Session().batch(requests, capture_errors=True))
    parallel = list(Session().batch(requests, jobs=2, capture_errors=True))
    assert [o.verdict for o in serial] == [o.verdict for o in parallel]
    assert [o.error for o in serial] == [o.error for o in parallel]
    assert any(o.error is None for o in serial)  # the slice must decide something


# --------------------------------------------------------------------- #
# Cache-delta merging
# --------------------------------------------------------------------- #
def test_worker_cache_deltas_merge_into_parent_session():
    def fresh() -> Session:
        return Session(
            cache=EngineCache(max_plans=100_000, max_indexes=100_000, max_results=100_000)
        )

    requests = mixed_requests(60, seed=11, distinct=True, verify_certificates=False)
    serial_session, parallel_session = fresh(), fresh()
    serial = list(serial_session.batch(requests))
    parallel = list(parallel_session.batch(requests, jobs=2))

    # Component-distinct requests share no cacheable work, so the merged
    # per-outcome deltas agree between the two execution shapes...
    assert merged_cache_stats(parallel) == merged_cache_stats(serial)
    # ...and the parent session absorbed exactly the fleet's counters (its
    # own cache ran nothing, so its totals are the absorbed deltas).
    assert parallel_session.cache.snapshot() == serial_session.cache.snapshot()


def test_absorb_delta_moves_only_counters():
    cache = EngineCache()
    cache.absorb_delta({"plans": (3, 2, 1), "results": (5, 0, 0), "unknown": (9, 9, 9)})
    assert cache.snapshot() == {
        "plans": (3, 2, 1),
        "indexes": (0, 0, 0),
        "results": (5, 0, 0),
    }
    assert len(cache._plans) == 0  # no entries were created


def test_outcome_elapsed_is_measured_in_the_worker():
    requests = mixed_requests(8, seed=3)
    outcomes = list(Session().batch(requests, jobs=2))
    assert all(outcome.elapsed > 0 for outcome in outcomes)


# --------------------------------------------------------------------- #
# Ordering, sharding, limits
# --------------------------------------------------------------------- #
def test_outcomes_stream_in_request_order_under_skewed_chunking():
    requests = mixed_requests(30, seed=4)
    outcomes = list(Session().batch(requests, jobs=3, chunk_size=1))
    assert [outcome.request for outcome in outcomes] == requests


def test_shard_and_chunk_size_helpers():
    assert shard([1, 2, 3, 4, 5], 2) == [(0, (1, 2)), (2, (3, 4)), (4, (5,))]
    with pytest.raises(ParallelError):
        shard([1], 0)
    assert default_chunk_size(0, 4) == 1
    assert default_chunk_size(1000, 4) == 32  # capped
    assert default_chunk_size(8, 4) == 1  # several chunks per worker
    assert 1 <= default_chunk_size(100, 3) <= 32


def test_parallel_batch_respects_max_batch_size():
    session = Session(limits=Limits(max_batch_size=5))
    requests = mixed_requests(8, seed=1)
    with pytest.raises(SessionError, match="max_batch_size"):
        list(session.batch(requests, jobs=2))


def test_session_spec_is_picklable_and_rehydrates():
    session = Session(
        backend="naive",
        cache=EngineCache(max_plans=7, max_indexes=5, max_results=3),
        limits=Limits(bounded_guess_max_candidates=123),
        memoize=False,
    )
    spec = pickle.loads(pickle.dumps(session.spec()))
    assert isinstance(spec, SessionSpec)
    twin = spec.build()
    assert twin.backend_name == "naive"
    assert twin.limits == session.limits
    assert twin.memoize is False
    assert twin.cache.capacities == (7, 5, 3)
    assert twin.cache is not session.cache


# --------------------------------------------------------------------- #
# Failure handling and clean shutdown
# --------------------------------------------------------------------- #
def test_capture_errors_matches_serial_rendering():
    requests = mixed_requests(6, seed=2)
    requests.insert(3, _poison_request())
    serial = list(Session().batch(requests, capture_errors=True))
    parallel = list(Session().batch(requests, jobs=2, capture_errors=True))
    assert [o.error for o in serial] == [o.error for o in parallel]
    assert serial[3].error is not None and "NotProjectionFree" in serial[3].error


def test_worker_exception_raises_parallel_error_and_cleans_up():
    requests = mixed_requests(6, seed=2) + [_poison_request()]
    with pytest.raises(ParallelError, match="NotProjectionFree"):
        list(Session().batch(requests, jobs=2, chunk_size=2))
    _assert_no_leaked_children()


def test_failed_worker_initializer_raises_instead_of_hanging():
    """A spec the worker cannot rehydrate (e.g. an unknown backend name)
    must surface as ``ParallelError``: a raising
    initializer would kill the worker during bootstrap and the pool would
    respawn it forever while ``imap`` blocks."""
    import repro.parallel as parallel_module

    bad_spec = SessionSpec(backend="no-such-backend")
    requests = mixed_requests(2, seed=0)
    payloads = [(0, tuple(requests), False)]
    with pytest.raises(ParallelError, match="no-such-backend"):
        list(
            pool_imap(
                parallel_module._run_request_chunk,
                payloads,
                jobs=1,
                initializer=parallel_module._batch_worker_init,
                initargs=(bad_spec,),
            )
        )
    _assert_no_leaked_children()


def _raise_keyboard_interrupt(payload):
    raise KeyboardInterrupt("simulated ctrl-c in a worker")


def _identity(payload):
    return payload


def test_keyboard_interrupt_in_worker_propagates_and_cleans_up():
    with pytest.raises(KeyboardInterrupt):
        list(pool_imap(_raise_keyboard_interrupt, [1, 2, 3], jobs=2))
    _assert_no_leaked_children()
    # The harness is reusable after the failure.
    assert list(pool_imap(_identity, [1, 2, 3], jobs=2)) == [1, 2, 3]


def test_closing_the_outcome_iterator_tears_the_pool_down():
    stream = Session().batch(mixed_requests(40, seed=6), jobs=2, chunk_size=2)
    assert next(stream).ok
    stream.close()
    _assert_no_leaked_children()


def test_single_request_and_jobs_one_fall_back_to_serial():
    requests = mixed_requests(1, seed=9)
    (outcome,) = list(Session().batch(requests, jobs=4))
    assert outcome.ok
    serial = list(Session().batch(mixed_requests(5, seed=9), jobs=1))
    assert all(outcome.ok for outcome in serial)
