"""Unit tests for the engine cache, fingerprints, and backend selection."""

import pytest

from repro.engine import (
    EngineCache,
    InternedBackend,
    NaiveBackend,
    get_backend,
    get_default_backend,
    query_fingerprint,
    set_default_backend,
    use_backend,
)
from repro.exceptions import ReproError
from repro.queries.parser import parse_cq
from repro.relational.atoms import Atom
from repro.relational.terms import Constant, Variable

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
        layer_plan(backend, source, target)
        layer_plan(backend, source, other)
        dropped = backend.cache.invalidate(target)
        assert dropped == 2  # the plan and its interned target
        layer_plan(backend, source, other)
        assert backend.cache.plan_stats.hits == 1  # the untouched target still hits

    def test_invalidate_everything(self):
        backend = fresh_backend()
        layer_plan(backend, (Atom("R", (x, y)),), (Atom("R", (a, b)),))
        assert backend.cache.invalidate() >= 1
        layer_plan(backend, (Atom("R", (x, y)),), (Atom("R", (a, b)),))
        assert backend.cache.plan_stats.misses == 2

    def test_lru_eviction(self):
        backend = fresh_backend(max_plans=2)
        targets = [(Atom("R", (Constant(f"c{i}"), b)),) for i in range(3)]
        for target in targets:
            layer_plan(backend, (Atom("R", (x, y)),), target)
        assert backend.cache.plan_stats.evictions == 1

    def test_describe_reports_all_layers(self):
        cache = EngineCache()
        text = cache.describe()
        assert "plans" in text and "indexes" in text and "results" in text


class TestQueryFingerprint:
    def test_invariant_under_renaming(self):
        q1 = parse_cq("q(x) <- R(x, y), S(y)")
        q2 = parse_cq("q(u) <- R(u, v), S(v)")
        assert query_fingerprint(q1) == query_fingerprint(q2)

    def test_distinguishes_structure(self):
        q1 = parse_cq("q(x) <- R(x, y)")
        q2 = parse_cq("q(x) <- R(x, x)")
        assert query_fingerprint(q1) != query_fingerprint(q2)

    def test_distinguishes_multiplicities(self):
        q1 = parse_cq("q(x) <- R(x, y)")
        q2 = parse_cq("q(x) <- R^2(x, y)")
        assert query_fingerprint(q1) != query_fingerprint(q2)

    def test_invariant_under_renamings_that_reorder_tied_atoms(self):
        # The swap x<->y reverses the name-based atom order; the canonical
        # search must still land on one fingerprint for the class.
        q1 = parse_cq("q(x) <- R(x, y), R(y, x)")
        q2 = q1.rename_variables({Variable("x"): Variable("b"), Variable("y"): Variable("a")})
        assert query_fingerprint(q1) == query_fingerprint(q2)
        q3 = parse_cq("q(u) <- R(y, u), R(z, u), R(z, x)")
        q4 = q3.rename_variables(
            {Variable("y"): Variable("z"), Variable("z"): Variable("y")}
        )
        assert query_fingerprint(q3) == query_fingerprint(q4)


class TestBackendSelection:
    def test_registry(self):
        assert isinstance(get_backend("naive"), NaiveBackend)
        assert isinstance(get_backend("interned"), InternedBackend)
        with pytest.raises(ReproError):
            get_backend("quantum")

    def test_default_backend_is_interned(self):
        assert get_default_backend().name == "interned"

    def test_use_backend_restores_the_previous_default(self):
        assert get_default_backend().name == "interned"
        with use_backend("naive") as backend:
            assert backend.name == "naive"
            assert get_default_backend().name == "naive"
        assert get_default_backend().name == "interned"

    def test_set_default_backend_returns_previous(self):
        previous = set_default_backend("naive")
        try:
            assert previous == "interned"
            assert get_default_backend().name == "naive"
        finally:
            set_default_backend(previous)

    def test_set_default_backend_rejects_unknown(self):
        with pytest.raises(ReproError):
            set_default_backend("quantum")


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
