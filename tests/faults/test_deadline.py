"""Tests for wall-clock deadlines (``repro.faults.runtime`` + Session).

The contract under test: ``Limits.deadline_ms`` bounds each request; an
exhausted budget yields an honest degraded Outcome (``verdict None``,
``degraded="deadline"``) instead of raising or guessing; degraded runs
never poison the session memo; and — the neutrality property — a generous
deadline changes *nothing* about the outcomes of requests that finish
under it, on every engine backend.
"""

import time

import pytest

from repro.engine import backend_names
from repro.exceptions import DeadlineExceeded, SessionError
from repro.faults import (
    FaultPlan,
    FaultRule,
    TICK_INTERVAL,
    check_deadline,
    deadline_scope,
    tick_handle,
    use_faults,
)
from repro.faults.runtime import deadline_handle
from repro.session import Limits, Session
from repro.workloads.scale import mixed_requests
from repro.workloads.structured import chain_containment_pair


def _small_pair():
    return chain_containment_pair(2)


class TestRuntimePrimitives:
    def test_limits_validation(self):
        with pytest.raises(SessionError, match="deadline_ms"):
            Limits(deadline_ms=0)
        with pytest.raises(SessionError, match="deadline_ms"):
            Limits(deadline_ms=-5)
        assert Limits(deadline_ms=100).deadline_ms == 100
        assert Limits().deadline_ms is None

    def test_check_deadline_raises_after_expiry(self):
        with deadline_scope(5):
            time.sleep(0.02)
            with pytest.raises(DeadlineExceeded):
                check_deadline()
        check_deadline()  # scope closed: no ambient deadline, no raise

    def test_deadline_scope_none_is_noop(self):
        with deadline_scope(None):
            check_deadline()

    def test_innermost_scope_wins(self):
        with deadline_scope(60_000):
            with deadline_scope(5):
                time.sleep(0.02)
                with pytest.raises(DeadlineExceeded):
                    check_deadline()
            check_deadline()  # back to the generous outer budget

    def test_tick_handle_inactive_is_none(self):
        assert tick_handle() is None

    def test_tick_handle_polls_deadline(self):
        with deadline_scope(5):
            tick = tick_handle()
            assert tick is not None
            time.sleep(0.02)
            with pytest.raises(DeadlineExceeded):
                tick()

    def test_deadline_handle_polls_the_deadline_only(self):
        assert deadline_handle() is None
        # An armed fault plan alone arms nothing here: the executor sites
        # stay the engine's.
        with use_faults(FaultPlan(rules=(FaultRule("executor.start", "latency", delay_ms=1.0),))):
            assert deadline_handle() is None
        with deadline_scope(5):
            tick = deadline_handle()
            assert tick is not None
            time.sleep(0.02)
            with pytest.raises(DeadlineExceeded):
                tick()
            with pytest.raises(DeadlineExceeded):
                deadline_handle()

    def test_tick_interval_bounds_polling_cost(self):
        assert TICK_INTERVAL == 64


class TestSessionDeadline:
    def test_admission_latency_past_deadline_degrades_honestly(self):
        containee, containing = _small_pair()
        plan = FaultPlan(
            rules=(FaultRule("session.execute", "latency", delay_ms=80.0),)
        )
        session = Session(limits=Limits(deadline_ms=25), fault_plan=plan)
        outcome = session.decide(containee, containing)
        assert outcome.degraded == "deadline"
        assert outcome.verdict is None
        assert outcome.value is None
        assert outcome.error is None
        assert outcome.elapsed >= 0.0
        assert "deadline" in outcome.explain()

    def test_engine_start_latency_past_deadline_degrades(self):
        containee, containing = _small_pair()
        plan = FaultPlan(rules=(FaultRule("executor.start", "latency", delay_ms=80.0),))
        session = Session(limits=Limits(deadline_ms=25), fault_plan=plan)
        outcome = session.decide(containee, containing)
        assert outcome.degraded == "deadline"
        assert outcome.verdict is None

    def test_budget_spent_after_the_engine_degrades_in_the_encoding(self, monkeypatch):
        # The engine returns its mappings just before the budget runs out;
        # nothing downstream of it polls the engine's tick, so only the
        # encoding's mapping loop can turn the rest of the request into an
        # honest degradation instead of a late verdict.
        from repro.engine.batch import ContainmentMappingBatcher
        from repro.workloads.scale import wide_star_pair

        engine_mappings = ContainmentMappingBatcher.mappings

        def slow_mappings(self, grounded, probe):
            mappings = engine_mappings(self, grounded, probe)
            time.sleep(0.06)
            return mappings

        monkeypatch.setattr(ContainmentMappingBatcher, "mappings", slow_mappings)
        containee, containing = wide_star_pair(2, 2)
        session = Session(limits=Limits(deadline_ms=30))
        outcome = session.decide(containee, containing)
        assert outcome.degraded == "deadline"
        assert outcome.verdict is None and outcome.value is None
        assert outcome.error is None
        monkeypatch.setattr(ContainmentMappingBatcher, "mappings", engine_mappings)
        retried = session.decide(containee, containing)
        assert retried.degraded is None and retried.verdict is True

    def test_degraded_run_does_not_poison_the_memo(self):
        containee, containing = _small_pair()
        plan = FaultPlan(
            rules=(FaultRule("session.execute", "latency", delay_ms=80.0, count=1),)
        )
        session = Session(limits=Limits(deadline_ms=25), fault_plan=plan)
        first = session.decide(containee, containing)
        assert first.degraded == "deadline"
        # The injected latency is exhausted (count=1): the retry must run
        # for real and produce a verdict — a memoized degraded outcome
        # would surface verdict None again.
        second = session.decide(containee, containing)
        assert second.degraded is None
        assert second.verdict is not None

    def test_verify_and_fuzz_ignore_the_per_request_deadline(self):
        # Campaign-style services manage their own budgets; a 1ms session
        # deadline must not abort them.
        session = Session(limits=Limits(deadline_ms=1))
        outcome = session.fuzz(cases=2, seed=0)
        assert outcome.degraded is None
        assert outcome.error is None


class TestDeadlineNeutrality:
    """Satellite: under-deadline requests are byte-identical modulo timing."""

    @pytest.mark.parametrize("backend", backend_names())
    def test_generous_deadline_changes_nothing(self, backend):
        requests = mixed_requests(8, seed=13, verify_certificates=False)
        plain = Session(backend=backend)
        bounded = Session(backend=backend, limits=Limits(deadline_ms=120_000))
        baseline = list(plain.batch(requests, capture_errors=True))
        guarded = list(bounded.batch(requests, capture_errors=True))
        assert len(baseline) == len(guarded) == len(requests)
        for request, a, b in zip(requests, baseline, guarded):
            assert a.request is request and b.request is request
            assert b.degraded is None
            assert a.degraded is None
            assert a.verdict == b.verdict
            assert a.certificate == b.certificate
            assert (type(a.error), str(a.error)) == (type(b.error), str(b.error))
            if a.value is not None:
                assert a.value == b.value
            else:
                assert b.value is None
