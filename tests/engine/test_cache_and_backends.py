"""Unit tests for the engine cache, fingerprints, and backend selection."""

import pytest

from repro.engine import (
    EngineCache,
    InternedBackend,
    NaiveBackend,
    get_backend,
    default_cache,
    get_default_backend,
)
from repro.exceptions import ReproError
from repro.queries.parser import parse_cq
from repro.relational.atoms import Atom
from repro.relational.terms import Constant, Variable
from repro.session import Session

x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b = Constant("a"), Constant("b")


def fresh_backend(**capacities) -> InternedBackend:
    return InternedBackend(cache=EngineCache(**capacities))


def layer_plan(backend: InternedBackend, source, target, fixed=frozenset()):
    """Plan lookup through the cache's plan layer.

    Fresh list containers miss the backend's identity memo, so every call
    reaches (and is counted by) the fingerprint-keyed plan layer.
    """
    return backend.plan(list(source), list(target), fixed)


class TestEngineCache:
    def test_plan_reuse_counts_as_hit(self):
        backend = fresh_backend()
        source = (Atom("R", (x, y)),)
        target = (Atom("R", (a, b)),)
        first = layer_plan(backend, source, target)
        second = layer_plan(backend, source, target)
        assert first is second
        assert backend.cache.plan_stats.hits == 1
        assert backend.cache.plan_stats.misses == 1

    def test_different_fixed_sets_get_different_plans(self):
        backend = fresh_backend()
        source = (Atom("R", (x, y)),)
        target = (Atom("R", (a, b)),)
        unfixed = layer_plan(backend, source, target)
        fixed = layer_plan(backend, source, target, frozenset({x}))
        assert unfixed is not fixed

    def test_target_index_is_shared_across_sources(self):
        backend = fresh_backend()
        target = (Atom("R", (a, b)),)
        layer_plan(backend, (Atom("R", (x, y)),), target)
        layer_plan(backend, (Atom("R", (x, x)),), target)
        assert backend.cache.index_stats.misses == 1
        assert backend.cache.index_stats.hits == 1

    def test_result_memoisation(self):
        cache = EngineCache()
        calls = []

        def compute():
            calls.append(1)
            return 7

        assert cache.result(("count", "key"), compute) == 7
        assert cache.result(("count", "key"), compute) == 7
        assert len(calls) == 1
        assert cache.result_stats.hits == 1

    def test_invalidate_by_target(self):
        backend = fresh_backend()
        source = (Atom("R", (x, y)),)
        target = (Atom("R", (a, b)),)
        other = (Atom("R", (b, a)),)
        first = layer_plan(backend, source, target)
        layer_plan(backend, source, other)
        dropped = backend.cache.invalidate(target)
        assert dropped == 1  # the interned target, and the plans bound to it
        hits, misses = backend.cache.plan_stats.hits, backend.cache.plan_stats.misses
        layer_plan(backend, source, other)
        assert backend.cache.plan_stats.hits == hits + 1  # the untouched target still hits
        # The invalidated target's bound plan went with it: planning again
        # binds a new plan, from the template, without compiling.
        assert layer_plan(backend, source, target) is not first
        assert backend.cache.plan_stats.misses == misses

    def test_invalidate_everything(self):
        backend = fresh_backend()
        layer_plan(backend, (Atom("R", (x, y)),), (Atom("R", (a, b)),))
        assert backend.cache.invalidate() >= 1
        layer_plan(backend, (Atom("R", (x, y)),), (Atom("R", (a, b)),))
        assert backend.cache.plan_stats.misses == 2

    def test_lru_eviction(self):
        backend = fresh_backend(max_plans=2)
        # Bucket sizes 1, 2 and 3 key three plan templates.
        targets = [tuple(Atom("R", (Constant(f"c{j}"), b)) for j in range(i + 1)) for i in range(3)]
        for target in targets:
            layer_plan(backend, (Atom("R", (x, y)),), target)
        assert backend.cache.plan_stats.evictions == 1

    def test_describe_reports_all_layers(self):
        cache = EngineCache()
        text = cache.describe()
        assert "plans" in text and "indexes" in text and "results" in text


class TestBackendSelection:
    def test_registry(self):
        assert isinstance(get_backend("naive"), NaiveBackend)
        assert isinstance(get_backend("interned"), InternedBackend)
        with pytest.raises(ReproError):
            get_backend("quantum")

    def test_default_backend_is_interned(self):
        assert get_default_backend().name == "interned"

    def test_session_activation_restores_the_previous_default(self):
        assert get_default_backend().name == "interned"
        with Session(backend="naive").activate() as session:
            assert session.backend.name == "naive"
            assert get_default_backend() is session.backend
        assert get_default_backend().name == "interned"

    def test_lookup_inside_a_session_rejects_unknown(self):
        with Session().activate():
            with pytest.raises(ReproError):
                get_backend("quantum")

    def test_verify_runs_both_backends_on_the_session_cache(self, monkeypatch):
        """The oracle's naive and interned runs use the session's instances
        and cache, never the shared session-less ones."""
        shared = default_cache()
        seen = []
        original_iterate = NaiveBackend.iterate
        original_plan = InternedBackend.plan

        def naive_spy(self, *args, **kwargs):
            seen.append(("naive", self, default_cache()))
            return original_iterate(self, *args, **kwargs)

        def interned_spy(self, *args, **kwargs):
            seen.append(("interned", self, self.cache))
            return original_plan(self, *args, **kwargs)

        monkeypatch.setattr(NaiveBackend, "iterate", naive_spy)
        monkeypatch.setattr(InternedBackend, "plan", interned_spy)
        session = Session()
        shared_before = shared.snapshot()
        report = session.verify(
            parse_cq("q1(x1, x2) <- R^2(x1, x2), P^3(x2, x2)"),
            parse_cq("q2(x1, x2) <- R^3(x1, x2), P^3(x2, x2)"),
        ).value
        assert report.ok
        assert {backend for _, backend, _ in seen} == {
            session.backend_instance("naive"),
            session.backend_instance("interned"),
        }
        assert all(cache is session.cache for _, _, cache in seen)
        assert shared.snapshot() == shared_before


class TestBackendAgreement:
    SOURCE = [Atom("R", (x, y)), Atom("R", (y, z))]
    TARGET = [Atom("R", (a, b)), Atom("R", (b, a)), Atom("R", (b, b))]

    def test_iterate_agrees(self):
        naive = sorted(repr(s) for s in get_backend("naive").iterate(self.SOURCE, self.TARGET))
        interned = sorted(repr(s) for s in get_backend("interned").iterate(self.SOURCE, self.TARGET))
        assert naive == interned

    def test_count_and_exists_agree(self):
        naive = get_backend("naive")
        interned = get_backend("interned")
        assert naive.count(self.SOURCE, self.TARGET) == interned.count(self.SOURCE, self.TARGET)
        assert naive.exists(self.SOURCE, self.TARGET) == interned.exists(self.SOURCE, self.TARGET)
