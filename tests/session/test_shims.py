"""Tests for the legacy deprecation shims over the default module session."""

import warnings

import pytest

import repro
from repro.queries.parser import parse_cq
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance
from repro.relational.terms import Constant
from repro.session import Session
from repro.session.shims import DEPRECATED_SHIMS, reset_shim_warnings


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


@pytest.fixture(autouse=True)
def fresh_warning_registry():
    reset_shim_warnings()
    yield
    reset_shim_warnings()


def _call_and_catch(func, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = func(*args, **kwargs)
    return value, [w for w in caught if issubclass(w.category, DeprecationWarning)]


class TestWarningBehaviour:
    def test_every_shim_advertises_its_replacement(self):
        assert "decide_bag_containment" in DEPRECATED_SHIMS
        for name, replacement in DEPRECATED_SHIMS.items():
            assert replacement, name
            assert getattr(repro, name).__deprecated_replacement__ == replacement

    def test_warning_fires_exactly_once_per_call_site(self, q1, q2):
        _, first = _call_and_catch(repro.decide_bag_containment, q1, q2)
        _, second = _call_and_catch(repro.decide_bag_containment, q1, q2)
        assert len(first) == 1
        assert "Session.decide()" in str(first[0].message)
        assert second == []

    def test_warning_fires_again_after_a_reset(self, q1, q2):
        _, first = _call_and_catch(repro.decide_bag_containment, q1, q2)
        reset_shim_warnings()
        _, again = _call_and_catch(repro.decide_bag_containment, q1, q2)
        assert len(first) == len(again) == 1

    def test_warning_is_attributed_to_the_caller(self, q1, q2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            repro.evaluate_bag(q1, BagInstance({}))
        assert caught and caught[0].filename == __file__

    def test_use_backend_shim_warns_and_still_switches(self):
        from repro.engine import get_default_backend

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with repro.use_backend("naive") as backend:
                assert backend.name == "naive"
                assert get_default_backend().name == "naive"
        assert get_default_backend().name == "interned"
        assert any(issubclass(w.category, DeprecationWarning) for w in caught)

    def test_set_default_backend_shim_warns_and_still_sets(self):
        from repro.engine import get_default_backend

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            previous = repro.set_default_backend("naive")
            try:
                assert get_default_backend().name == "naive"
            finally:
                repro.set_default_backend(previous)
        assert any(issubclass(w.category, DeprecationWarning) for w in caught)


class TestShimResultsMatchSessions:
    def test_decide_matches_session_decide(self, q1, q2):
        session = Session()
        for containee, containing in [(q1, q2), (q2, q1)]:
            legacy, _ = _call_and_catch(repro.decide_bag_containment, containee, containing)
            fresh = session.decide(containee, containing)
            assert legacy.contained == fresh.verdict
            assert legacy.strategy == fresh.value.strategy
            assert legacy.reason == fresh.value.reason
            assert legacy.counterexample == fresh.certificate

    def test_decide_matches_across_strategies(self, q1, q2):
        session = Session()
        for strategy in ("most-general", "all-probes", "bounded-guess"):
            legacy, _ = _call_and_catch(repro.decide_bag_containment, q2, q1, strategy=strategy)
            fresh = session.decide(q2, q1, strategy=strategy)
            assert legacy.contained == fresh.verdict
            assert legacy.counterexample == fresh.certificate

    def test_evaluate_matches_session_evaluate(self, q1, tiny_bag):
        legacy, _ = _call_and_catch(repro.evaluate_bag, q1, tiny_bag)
        assert legacy == Session().evaluate(q1, tiny_bag).value

    def test_set_and_bag_set_containment_match(self, q1, q2):
        session = Session()
        legacy_set, _ = _call_and_catch(repro.decide_set_containment, q1, q2)
        assert legacy_set.contained == session.decide(q1, q2, semantics="set").verdict
        legacy_bag_set, _ = _call_and_catch(repro.decide_bag_set_containment, q1, q2)
        assert legacy_bag_set == session.decide(q1, q2, semantics="bag-set").verdict

    def test_compare_matches_containment_spectrum(self, q1, q2):
        legacy, _ = _call_and_catch(repro.compare, q1, q2)
        fresh = Session().containment_spectrum(q1, q2)
        assert legacy == fresh.value

    def test_encode_matches_session_mpi(self, q1, q2):
        legacy, _ = _call_and_catch(repro.encode_most_general, q1, q2)
        fresh = Session().mpi(q1, q2).value
        assert legacy.inequality == fresh.inequality
        assert legacy.probe == fresh.probe

    def test_run_differential_oracle_matches_session_verify(self, q1, q2):
        legacy, _ = _call_and_catch(repro.run_differential_oracle, q1, q2)
        fresh = Session().verify(q1, q2).value
        assert legacy.consensus == fresh.consensus
        assert legacy.discrepancies == fresh.discrepancies

    def test_shims_honor_an_explicit_backend_selection(self, q1, q2, monkeypatch):
        """A legacy ``use_backend`` scope must govern shimmed calls (regression).

        The shim's default-session activation used to override the
        context's explicit backend with the session's ``interned`` instance.
        """
        from repro.engine.backends import NaiveBackend

        calls = []
        original = NaiveBackend.iterate

        def spy(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(NaiveBackend, "iterate", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            with repro.use_backend("naive"):
                assert repro.decide_bag_containment(q1, q2).contained
        assert calls, "the shimmed decision must run on the explicitly selected backend"

    def test_warning_fires_again_from_a_second_call_site(self, q1, q2):
        """Dedup is per call *site*: two lines in one module both warn."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            repro.is_bag_contained(q1, q2)  # first call site
            repro.is_bag_contained(q1, q2)  # second call site (distinct line)
            repro.is_bag_contained(q1, q2)  # repeat of... a third line: warns too
        deprecations = [w for w in caught if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 3

    def test_cross_check_honors_an_explicit_backend_selection(self, q1, q2, monkeypatch):
        from repro.engine.backends import NaiveBackend

        calls = []
        original = NaiveBackend.iterate

        def spy(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(NaiveBackend, "iterate", spy)
        from repro.baselines.comparison import cross_check
        from repro.engine import use_backend

        with use_backend("naive"):
            report = cross_check(q1, q2)
        assert report.consistent
        assert calls, "cross_check must run on the explicitly selected backend"

    def test_shims_honor_an_active_session(self, q1, q2):
        session = Session(backend="naive")
        from repro.session import use_session

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            with use_session(session):
                repro.decide_bag_containment(q1, q2)
        from repro.session import default_session

        # The active session governed the call: the default session's plan
        # layers saw no traffic from it (naive bypasses them anyway, but the
        # decision must not have re-activated the default session at all).
        assert session.cache is not default_session().cache

    def test_default_session_is_a_singleton_under_concurrency(self):
        import threading

        from repro.session import default_session
        from repro.session import session as session_module

        original = session_module._DEFAULT_SESSION
        session_module._DEFAULT_SESSION = None
        try:
            barrier = threading.Barrier(8, timeout=10)
            seen = []

            def grab():
                barrier.wait()
                seen.append(default_session())

            threads = [threading.Thread(target=grab) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert len(seen) == 8
            assert len({id(instance) for instance in seen}) == 1
        finally:
            session_module._DEFAULT_SESSION = original

    def test_shims_run_over_the_default_session(self, q1, q2):
        from repro.engine import backends as engine_backends
        from repro.session import default_session

        # A context with no explicit backend choice (earlier tests may have
        # left a set_default_backend selection behind, which shims honor).
        token = engine_backends._ACTIVE_BACKEND.set(None)
        try:
            cache = default_session().cache
            before = {layer: counts for layer, counts in cache.snapshot().items()}
            _call_and_catch(repro.decide_bag_containment, q1.with_name("warm"), q2)
            after = cache.snapshot()
            assert sum(c[0] + c[1] for c in after.values()) > sum(
                c[0] + c[1] for c in before.values()
            )
        finally:
            engine_backends._ACTIVE_BACKEND.reset(token)


class TestInternalHygiene:
    def test_no_internal_module_calls_a_shim(self, q1, q2, tiny_bag):
        """Exercising the service paths raises no repro-attributed warnings.

        The pytest filter escalates ``DeprecationWarning``s attributed to
        ``repro.*`` modules to errors, so this test fails loudly if any
        internal code path routes through a deprecated shim.
        """
        session = Session()
        session.decide(q1, q2)
        session.decide(q2, q1)
        session.evaluate(q1, tiny_bag)
        session.containment_spectrum(q1, q2)
        session.verify(q1, q2)
        session.fuzz(cases=3, seed=0, mutation_rate=0.5, shrink_failures=False)
        repro.cross_check(q1, q2)
