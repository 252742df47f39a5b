"""Regression tests: backend selection must not leak across threads.

Which backend runs is decided by the active session alone, and activation
is ``contextvars``-backed: each thread resolves its own default, and a
thread outside any session runs on the shared ``interned`` instance.
"""

import threading

from repro.engine import default_cache, get_default_backend
from repro.engine.backends import _shared_instance
from repro.queries.parser import parse_cq
from repro.session import Session, use_session


class TestThreadIsolation:
    def test_session_activation_does_not_leak_across_threads(self):
        switched = threading.Event()
        observed = threading.Event()
        names: dict[str, str] = {}
        errors: list[BaseException] = []

        def switcher():
            try:
                with Session(backend="naive").activate():
                    names["switcher"] = get_default_backend().name
                    switched.set()
                    # Hold the activation until the observer has looked.
                    assert observed.wait(5)
                names["switcher-after"] = get_default_backend().name
            except BaseException as error:  # pragma: no cover - surfaced below
                errors.append(error)
                switched.set()

        def observer():
            try:
                assert switched.wait(5)
                names["observer"] = get_default_backend().name
            finally:
                observed.set()

        threads = [threading.Thread(target=switcher), threading.Thread(target=observer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        assert names["switcher"] == "naive"
        assert names["observer"] == "interned"  # the activation never leaked
        assert names["switcher-after"] == "interned"

    def test_two_threads_run_two_sessions_concurrently(self):
        """Each thread decides through its own session, backend and cache."""
        q1 = parse_cq("q1(x1, x2) <- R^2(x1, x2), P^3(x2, x2)")
        q2 = parse_cq("q2(x1, x2) <- R^3(x1, x2), P^3(x2, x2)")
        sessions = {"a": Session(backend="interned"), "b": Session(backend="naive")}
        barrier = threading.Barrier(2, timeout=10)
        backend_seen: dict[str, str] = {}
        verdicts: dict[str, bool] = {}

        def worker(key: str) -> None:
            session = sessions[key]
            with use_session(session):
                barrier.wait()  # both sessions are active at the same time
                backend_seen[key] = get_default_backend().name
                verdicts[key] = session.decide(q1, q2).verdict

        threads = [threading.Thread(target=worker, args=(key,)) for key in sessions]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)

        assert backend_seen == {"a": "interned", "b": "naive"}
        assert verdicts == {"a": True, "b": True}
        # Only the interned session compiled plans; the naive session's cache
        # saw nothing but its own decision memo (the naive backend bypasses
        # the plan/index layers entirely).
        assert sessions["a"].cache.snapshot()["plans"][1] > 0
        assert sessions["b"].cache.snapshot()["plans"] == (0, 0, 0)
        assert sessions["b"].cache.snapshot()["indexes"] == (0, 0, 0)

    def test_new_threads_start_on_the_shared_interned_instance(self):
        with Session(backend="naive").activate():
            seen: list[object] = []
            thread = threading.Thread(
                target=lambda: seen.extend([get_default_backend(), default_cache()])
            )
            thread.start()
            thread.join(timeout=10)
        shared = _shared_instance("interned")
        assert seen == [shared, shared.cache]

    def test_nested_activation_restores_the_outer_backend(self):
        outer = Session(backend="naive")
        with outer.activate():
            with Session(backend="interned").activate():
                assert get_default_backend().name == "interned"
            assert get_default_backend() is outer.backend
        assert get_default_backend() is _shared_instance("interned")

    def test_shared_instances_are_singletons_under_concurrency(self):
        from repro.engine import backends

        original = dict(backends._SHARED)
        backends._SHARED.clear()
        try:
            barrier = threading.Barrier(8, timeout=10)
            seen = []

            def grab():
                barrier.wait()
                seen.append(get_default_backend())

            threads = [threading.Thread(target=grab) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert len(seen) == 8
            assert len({id(instance) for instance in seen}) == 1
        finally:
            backends._SHARED.clear()
            backends._SHARED.update(original)
