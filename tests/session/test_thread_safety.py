"""Regression tests: backend selection must not leak across threads.

Before the session redesign, ``use_backend`` / ``set_default_backend``
mutated a process-global, so a backend switched in one thread silently
changed the decision paths of every other thread.  Selection is now
``contextvars``-backed: each thread resolves its own default.
"""

import threading

import pytest

from repro.engine import get_default_backend, set_default_backend, use_backend
from repro.queries.parser import parse_cq
from repro.session import Session, use_session


class TestThreadIsolation:
    def test_use_backend_does_not_leak_across_threads(self):
        switched = threading.Event()
        observed = threading.Event()
        names: dict[str, str] = {}
        errors: list[BaseException] = []

        def switcher():
            try:
                with use_backend("naive"):
                    names["switcher"] = get_default_backend().name
                    switched.set()
                    # Hold the switch until the observer has looked.
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
        assert names["observer"] == "interned"  # the switch never leaked
        assert names["switcher-after"] == "interned"

    def test_set_default_backend_is_thread_local(self):
        results: dict[str, str] = {}
        ready = threading.Event()
        done = threading.Event()

        def setter():
            set_default_backend("naive")
            results["setter"] = get_default_backend().name
            ready.set()
            assert done.wait(5)

        def checker():
            assert ready.wait(5)
            results["checker"] = get_default_backend().name
            done.set()

        threads = [threading.Thread(target=setter), threading.Thread(target=checker)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert results == {"setter": "naive", "checker": "interned"}

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

    def test_new_threads_start_from_the_base_default(self):
        with use_backend("naive"):
            seen: list[str] = []
            thread = threading.Thread(target=lambda: seen.append(get_default_backend().name))
            thread.start()
            thread.join(timeout=10)
        assert seen == ["interned"]
