"""Tests for the Session service facade: requests, outcomes, isolation."""

import pytest

from repro.engine import EngineCache, get_default_backend
from repro.engine.backends import Backend, NaiveBackend
from repro.exceptions import SessionError
from repro.queries.parser import parse_cq, parse_ucq
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance, SetInstance
from repro.relational.terms import Constant
from repro.session import (
    ContainmentRequest,
    EvaluationRequest,
    Limits,
    MpiRequest,
    Outcome,
    Session,
    backend_names,
    current_session,
    register_backend,
    register_strategy,
    strategy_names,
    use_session,
)


@pytest.fixture
def q1():
    return parse_cq("q1(x1, x2) <- R^2(x1, x2), P^3(x2, x2)")


@pytest.fixture
def q2():
    return parse_cq("q2(x1, x2) <- R^3(x1, x2), P^3(x2, x2)")


@pytest.fixture
def tiny_bag():
    a, b = Constant("a"), Constant("b")
    return BagInstance({Atom("R", (a, b)): 2, Atom("P", (b, b)): 1})


class TestDecide:
    def test_bag_containment_outcome(self, q1, q2):
        session = Session()
        outcome = session.decide(q1, q2)
        assert outcome.verdict is True
        assert outcome.value.contained
        assert outcome.certificate is None
        assert outcome.elapsed >= 0
        assert "plans" in outcome.cache
        assert outcome.ok

    def test_negative_verdict_carries_the_counterexample(self, q1, q2):
        outcome = Session().decide(q2, q1)
        assert outcome.verdict is False
        assert outcome.certificate is not None
        assert outcome.certificate.verify(q2, q1)

    def test_request_object_form(self, q1, q2):
        session = Session()
        request = ContainmentRequest(q1, q2, strategy="all-probes")
        outcome = session.decide(request)
        assert outcome.request is request
        assert outcome.verdict is True
        assert outcome.value.strategy == "all-probes"

    def test_set_semantics(self, q1, q2):
        outcome = Session().decide(q1, q2, semantics="set")
        assert outcome.verdict is True
        assert outcome.certificate is not None  # the witnessing mapping

    def test_bag_set_semantics(self, q1, q2):
        outcome = Session().decide(q1, q2, semantics="bag-set")
        assert outcome.verdict is True

    def test_unknown_semantics_is_rejected(self, q1, q2):
        with pytest.raises(SessionError):
            Session().decide(q1, q2, semantics="fuzzy")

    def test_request_and_options_are_mutually_exclusive(self, q1, q2):
        with pytest.raises(SessionError):
            Session().decide(ContainmentRequest(q1, q2), q2)

    def test_lp_path(self, q1, q2):
        pytest.importorskip("scipy")
        outcome = Session().decide(q1, q2, diophantine_path="lp")
        assert outcome.verdict is True


class TestEvaluate:
    def test_bag_evaluation(self, q1, tiny_bag):
        outcome = Session().evaluate(q1, tiny_bag)
        a, b = Constant("a"), Constant("b")
        assert outcome.verdict is None
        assert outcome.value[(a, b)] == 4

    def test_answer_pinned_evaluation(self, q1, tiny_bag):
        a, b = Constant("a"), Constant("b")
        outcome = Session().evaluate(EvaluationRequest(q1, tiny_bag, answer=(a, b)))
        assert outcome.value == 4

    def test_set_semantics_accepts_bags_and_sets(self, q1, tiny_bag):
        session = Session()
        a, b = Constant("a"), Constant("b")
        from_bag = session.evaluate(q1, tiny_bag, semantics="set")
        from_set = session.evaluate(q1, tiny_bag.support(), semantics="set")
        assert from_bag.value == from_set.value
        assert (a, b) in from_bag.value

    def test_bag_set_semantics(self, q1, tiny_bag):
        outcome = Session().evaluate(q1, tiny_bag, semantics="bag-set")
        a, b = Constant("a"), Constant("b")
        assert outcome.value[(a, b)] == 1

    def test_ucq_evaluation(self, tiny_bag):
        ucq = parse_ucq(["q(x, y) <- R(x, y)", "q(x, y) <- P(x, y)"])
        outcome = Session().evaluate(ucq, tiny_bag)
        assert outcome.value.total() == 3

    def test_bag_semantics_requires_a_bag(self, q1, tiny_bag):
        with pytest.raises(SessionError):
            Session().evaluate(q1, tiny_bag.support())


class TestMpi:
    def test_encode_only(self, q1, q2):
        outcome = Session().mpi(q1, q2)
        assert outcome.verdict is None
        assert outcome.value.dimension >= 1

    def test_encode_and_decide(self, q1, q2):
        outcome = Session().mpi(MpiRequest(q2, q1, decide=True))
        encoding, decision = outcome.value
        assert outcome.verdict is decision.solvable is True
        assert outcome.certificate is decision.witness


class TestSpectrumVerifyFuzz:
    def test_containment_spectrum(self, q1):
        outcome = Session().containment_spectrum(q1, q1.with_name("copy"))
        assert outcome.verdict is True

    def test_verify_single_pair(self, q1, q2):
        outcome = Session().verify(q1, q2)
        assert outcome.verdict is True
        assert outcome.value.ok

    def test_fuzz_smoke_campaign(self):
        session = Session()
        outcome = session.fuzz(cases=4, seed=0, strategies=("most-general",), mutation_rate=0.0, shrink_failures=False)
        assert outcome.verdict is True
        assert outcome.value.cases_run == 4
        # The campaign ran inside the session: its cache saw the traffic.
        assert sum(counts[0] + counts[1] for counts in session.cache.snapshot().values()) > 0


class TestBatch:
    def test_streaming_heterogeneous_batch(self, q1, q2, tiny_bag):
        session = Session()
        requests = [
            ContainmentRequest(q1, q2),
            EvaluationRequest(q1, tiny_bag),
            MpiRequest(q1, q2),
        ]
        outcomes = list(session.batch(requests))
        assert [outcome.request for outcome in outcomes] == requests
        assert outcomes[0].verdict is True
        assert outcomes[1].value.total() > 0
        assert outcomes[2].value.dimension >= 1

    def test_batch_memoises_repeated_decisions(self, q1, q2):
        session = Session()
        outcomes = list(session.batch([ContainmentRequest(q1, q2)] * 5))
        assert len(outcomes) == 5
        assert len({outcome.verdict for outcome in outcomes}) == 1
        result_hits = sum(outcome.cache.get("results", (0, 0, 0))[0] for outcome in outcomes)
        assert result_hits >= 4  # requests 2..5 are answered from the memo

    def test_batch_amortises_plans_without_memoisation(self, q1, q2):
        session = Session(memoize=False)
        outcomes = list(session.batch([ContainmentRequest(q1, q2)] * 5))
        plan_hits = sum(outcome.cache.get("plans", (0, 0, 0))[0] for outcome in outcomes)
        assert plan_hits > 0  # later requests reuse the first request's compiled plan
        assert all(outcome.verdict is True for outcome in outcomes)

    def test_memo_distinguishes_renamed_queries(self, q1, q2):
        """Query equality is structural (names ignored); outcomes must not be."""
        session = Session()
        first = session.decide(q1, q2)
        renamed = session.decide(q1.with_name("mine"), q2.with_name("yours"))
        assert first.verdict == renamed.verdict
        assert renamed.value.containee.name == "mine"
        assert renamed.value.containing.name == "yours"
        assert "mine" in renamed.value.explain()

    def test_memoised_outcomes_match_fresh_ones(self, q1, q2):
        memoised = Session()
        first = memoised.decide(q2, q1)
        second = memoised.decide(q2, q1)
        fresh = Session(memoize=False).decide(q2, q1)
        assert first.value == second.value
        assert second.verdict == fresh.verdict
        assert second.value.counterexample == fresh.value.counterexample

    def test_batch_is_lazy(self, q1, q2):
        session = Session()
        stream = session.batch(ContainmentRequest(q1, q2) for _ in range(1000))
        first = next(stream)
        assert first.verdict is True  # no SessionError: nothing else was consumed

    def test_max_batch_size_limit(self, q1, q2):
        session = Session(limits=Limits(max_batch_size=2))
        with pytest.raises(SessionError):
            list(session.batch([ContainmentRequest(q1, q2)] * 3))

    def test_capture_errors_keeps_the_stream_alive(self, q1, tiny_bag):
        bad = EvaluationRequest(q1, tiny_bag.support())  # bag semantics on a set
        good = EvaluationRequest(q1, tiny_bag)
        outcomes = list(Session().batch([bad, good], capture_errors=True))
        assert not outcomes[0].ok and outcomes[0].error is not None
        assert outcomes[1].ok and outcomes[1].value.total() > 0


class TestIsolationAndContext:
    def test_sessions_own_their_caches(self, q1, q2):
        first, second = Session(), Session()
        first.decide(q1, q2)
        assert sum(counts[1] for counts in first.cache.snapshot().values()) > 0
        assert sum(counts[1] for counts in second.cache.snapshot().values()) == 0

    def test_use_session_activates_and_restores(self):
        session = Session(backend="naive")
        assert current_session() is None
        with use_session(session) as active:
            assert active is session
            assert current_session() is session
            assert get_default_backend() is session.backend
        assert current_session() is None
        assert get_default_backend().name == "interned"

    def test_nested_sessions_restore_in_order(self):
        outer, inner = Session(name="outer"), Session(name="inner", backend="naive")
        with use_session(outer):
            with use_session(inner):
                assert current_session() is inner
                assert get_default_backend().name == "naive"
            assert current_session() is outer
            assert get_default_backend() is outer.backend

    @pytest.mark.parametrize("name", ["quantum", "indexed", "generated"])
    def test_unknown_backend_is_rejected(self, name):
        with pytest.raises(SessionError) as raised:
            Session(backend=name)
        message = str(raised.value)
        assert f"unknown engine backend {name!r}" in message
        assert "'naive', 'interned'" in message

    def test_shared_cache_injection(self, q1, q2):
        cache = EngineCache()
        session = Session(cache=cache)
        session.decide(q1, q2)
        assert session.cache is cache
        assert sum(counts[1] for counts in cache.snapshot().values()) > 0


class TestRegistries:
    def test_register_backend_makes_the_name_available_everywhere(self, q1, q2):
        class EchoBackend(NaiveBackend):
            name = "echo-test"

        register_backend("echo-test", lambda cache: EchoBackend(), replace=True)
        assert "echo-test" in backend_names()
        session = Session(backend="echo-test")
        assert session.backend.name == "echo-test"
        assert session.decide(q1, q2).verdict is True

    def test_register_backend_rejects_duplicates(self):
        with pytest.raises(Exception):
            register_backend("interned", lambda cache: NaiveBackend())

    def test_register_strategy_is_selectable_by_sessions(self, q1, q2):
        from repro.core.decision import decide_via_most_general_probe

        calls = []

        def recording_strategy(containee, containing, **options):
            calls.append((containee.name, containing.name))
            return decide_via_most_general_probe(containee, containing)

        register_strategy("recording-test", recording_strategy, replace=True)
        assert "recording-test" in strategy_names()
        outcome = Session().decide(q1, q2, strategy="recording-test")
        assert outcome.verdict is True
        assert calls == [("q1", "q2")]

    def test_register_strategy_rejects_duplicates(self):
        with pytest.raises(Exception):
            register_strategy("most-general", lambda *args, **kwargs: None)


class TestLimits:
    def test_bounded_guess_budget_comes_from_the_session(self):
        from repro.exceptions import EnumerationBudgetError

        big_containee = parse_cq("q1(x1, x2, x3) <- R(x1, x2), R(x2, x3), R(x3, x1)")
        big_containing = parse_cq("q2(x1, x2, x3) <- R(x1, x2), R(x2, x3)")
        tight = Session(limits=Limits(bounded_guess_max_candidates=1))
        with pytest.raises(EnumerationBudgetError):
            tight.decide(big_containee, big_containing, strategy="bounded-guess")

    def test_invalid_limits_are_rejected(self):
        with pytest.raises(SessionError):
            Limits(max_batch_size=0)
        with pytest.raises(SessionError):
            Limits(fuzz_time_budget=0.0)

    def test_outcome_explain_mentions_timing(self, q1, q2):
        text = Session().decide(q1, q2).explain()
        assert "ms" in text and "verdict=True" in text
