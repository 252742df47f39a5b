"""Tests for parallel-batch fault survival (``repro.parallel``).

The contract under test: a worker crash on one request is retried, the
crashing shard is bisected, and only the poison request is quarantined —
every other request completes with its normal outcome in request order;
``ParallelError`` chains the worker's original exception (with its remote
traceback) and names the failing request's index and fingerprint; and a
*hung* worker is recovered through ``task_timeout`` by rebuilding the
pool without charging innocent shards any retry budget.
"""

import multiprocessing
import time

import pytest

from repro.exceptions import FaultInjected, ParallelError
from repro.faults import FaultPlan, FaultRule
from repro.session import Session
from repro.workloads.scale import mixed_requests

POISON = 3


def _requests(count=8):
    return mixed_requests(count, seed=21, verify_certificates=False)


def _crash_plan():
    return FaultPlan(seed=1, rules=(FaultRule("parallel.request", "crash", keys=(POISON,)),))


def _assert_no_leaked_workers():
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not multiprocessing.active_children(), "worker processes leaked"


class TestQuarantine:
    def test_only_the_poison_request_is_quarantined_in_order(self):
        requests = _requests()
        oracle = list(Session(name="oracle").batch(requests, capture_errors=True))
        session = Session(name="faulted", fault_plan=_crash_plan())
        outcomes = list(
            session.batch(
                requests, capture_errors=True, jobs=2, chunk_size=2, task_timeout=30.0
            )
        )
        assert len(outcomes) == len(requests)
        for index, (request, expected, outcome) in enumerate(
            zip(requests, oracle, outcomes)
        ):
            assert outcome.request is request  # original identity, in order
            if index == POISON:
                assert outcome.degraded == "quarantined"
                assert outcome.verdict is None
                assert f"request {POISON}" in outcome.error
                assert "injected worker crash" in outcome.error
            else:
                assert outcome.degraded is None
                assert outcome.verdict == expected.verdict
                assert outcome.certificate == expected.certificate
                assert str(outcome.error) == str(expected.error)

    def test_quarantine_error_names_the_fingerprint(self):
        requests = _requests(6)
        session = Session(fault_plan=_crash_plan())
        outcomes = list(
            session.batch(requests, capture_errors=True, jobs=2, chunk_size=2)
        )
        message = outcomes[POISON].error
        assert "quarantined after repeated worker failure" in message
        # The 16-hex-digit request fingerprint makes the poison request
        # findable without re-running the batch.
        inside = message.split("(")[1].split(")")[0]
        assert len(inside) == 16 and all(c in "0123456789abcdef" for c in inside)


class TestErrorChaining:
    def test_parallel_error_names_request_and_chains_the_original(self):
        requests = _requests(6)
        session = Session(fault_plan=_crash_plan())
        with pytest.raises(ParallelError) as excinfo:
            list(session.batch(requests, jobs=2, chunk_size=2))
        message = str(excinfo.value)
        assert f"on request {POISON}" in message
        cause = excinfo.value.__cause__
        assert isinstance(cause, FaultInjected)
        # The remote detail rides as the revived exception's own cause, so
        # the worker-side failure survives the process boundary verbatim.
        assert cause.__cause__ is not None
        assert "injected worker crash" in str(cause.__cause__)

    def test_raised_worker_errors_carry_the_remote_traceback(self):
        from repro.session import ContainmentRequest
        from repro.workloads.structured import chain_containment_pair

        containee, containing = chain_containment_pair(2)
        poison = ContainmentRequest(containing, containee)  # raises in the worker
        session = Session()
        with pytest.raises(ParallelError) as excinfo:
            list(
                session.batch(
                    [poison, ContainmentRequest(containee, containing)],
                    jobs=2,
                    chunk_size=1,
                )
            )
        remote = excinfo.value.__cause__.__cause__
        assert remote is not None
        assert "Traceback (most recent call last)" in str(remote)

    def test_request_errors_chain_without_faults(self):
        # A genuinely broken request (not an injected fault) gets the same
        # index/fingerprint annotation when capture_errors is off.
        from repro.workloads.structured import chain_containment_pair
        from repro.session import ContainmentRequest

        containee, containing = chain_containment_pair(2)
        good = ContainmentRequest(containee, containing, verify_certificates=False)
        poison = ContainmentRequest(containing, containee)  # existential containee
        requests = [good, poison, good, good]
        session = Session()
        with pytest.raises(ParallelError, match="on request 1") as excinfo:
            list(session.batch(requests, jobs=2, chunk_size=1))
        assert type(excinfo.value.__cause__).__name__ == "NotProjectionFreeError"


class TestHangRecovery:
    def test_hung_worker_is_recovered_and_innocents_complete(self):
        requests = _requests(6)
        plan = FaultPlan(
            rules=(
                FaultRule("parallel.request", "hang", keys=(POISON,), delay_ms=60_000.0),
            )
        )
        oracle = list(Session(name="oracle").batch(requests, capture_errors=True))
        session = Session(fault_plan=plan)
        outcomes = list(
            session.batch(
                requests, capture_errors=True, jobs=2, chunk_size=2, task_timeout=1.0
            )
        )
        assert len(outcomes) == len(requests)
        for index, (expected, outcome) in enumerate(zip(oracle, outcomes)):
            if index == POISON:
                assert outcome.degraded == "quarantined"
                assert "task_timeout" in outcome.error
            else:
                # Innocent shards sharing the pool with the hung worker
                # must not burn retry budget or degrade.
                assert outcome.degraded is None
                assert outcome.verdict == expected.verdict


class TestCampaignWorkerCrash:
    def test_fuzz_crash_names_the_case_and_leaks_no_workers(self):
        # Fuzz cases are session requests on the supervised harness, so a
        # keyed worker crash is retried, bisected and finally named.
        session = Session(fault_plan=_crash_plan())
        with pytest.raises(ParallelError, match=f"on request {POISON}") as excinfo:
            session.fuzz(
                cases=6,
                seed=0,
                jobs=2,
                chunk_size=2,
                shrink_failures=False,
                strategies=("most-general",),
                backends=("interned",),
                diophantine_paths=("exact",),
            )
        assert isinstance(excinfo.value.__cause__, FaultInjected)
        _assert_no_leaked_workers()


class TestPickleBoundary:
    def test_unpicklable_request_fails_loudly_and_leaks_no_workers(self):
        # A request type defined inside a function cannot cross the pool's
        # pickle boundary; the batch must name that failure, not hang or
        # fall back to a silent serial run.
        from repro.session import ContainmentRequest
        from repro.workloads.structured import chain_containment_pair

        class LocalRequest(ContainmentRequest):
            pass

        containee, containing = chain_containment_pair(2)
        requests = [LocalRequest(containee, containing) for _ in range(2)]
        with pytest.raises(ParallelError, match="pickle") as excinfo:
            list(Session().batch(requests, jobs=2, chunk_size=1))
        assert "LocalRequest" in str(excinfo.value)
        _assert_no_leaked_workers()

    def test_local_request_type_runs_without_a_pool(self):
        # The same request type is fine in-process: the failure above is
        # the pickle boundary's, not the request's.
        from repro.session import ContainmentRequest
        from repro.workloads.structured import chain_containment_pair

        class LocalRequest(ContainmentRequest):
            pass

        containee, containing = chain_containment_pair(2)
        requests = [LocalRequest(containee, containing) for _ in range(2)]
        outcomes = list(Session().batch(requests, jobs=1))
        assert [outcome.verdict for outcome in outcomes] == [True, True]
        assert all(outcome.request is request for outcome, request in zip(outcomes, requests))

    def test_session_runs_parallel_batches_after_a_pickling_failure(self):
        from repro.session import ContainmentRequest
        from repro.workloads.structured import chain_containment_pair

        class LocalRequest(ContainmentRequest):
            pass

        containee, containing = chain_containment_pair(2)
        session = Session()
        with pytest.raises(ParallelError, match="pickle"):
            list(session.batch([LocalRequest(containee, containing)] * 2, jobs=2))
        requests = _requests(6)
        oracle = list(Session(name="oracle").batch(requests, capture_errors=True))
        outcomes = list(session.batch(requests, capture_errors=True, jobs=2, chunk_size=2))
        assert [o.verdict for o in outcomes] == [o.verdict for o in oracle]
        assert [str(o.error) for o in outcomes] == [str(o.error) for o in oracle]
        _assert_no_leaked_workers()
