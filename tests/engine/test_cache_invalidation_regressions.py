"""Regression tests: memoised results vs invalidation, and stats under batch APIs.

These pin two behaviours the fuzz runner's stats aggregation relies on:

* ``EngineCache.invalidate(target)`` must be *surgical* — memoised
  ``count``/``exists`` entries (and plans/indexes) for **other** targets
  must survive and keep hitting;
* sweeps (repeated counts, one bag evaluator over many bags) must account
  their cache traffic in the same counters the one-shot calls use, so
  ``snapshot()`` deltas mean the same thing everywhere.
"""

from repro.engine import (
    BagBatchEvaluator,
    EngineCache,
    InternedBackend,
    merge_snapshots,
    snapshot_delta,
)
from repro.queries.parser import parse_cq
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance
from repro.relational.terms import Constant, Variable

x, y = Variable("x"), Variable("y")
a, b, c = Constant("a"), Constant("b"), Constant("c")


def fresh_backend() -> InternedBackend:
    return InternedBackend(cache=EngineCache())


class TestMemoisedResultsSurviveUnrelatedInvalidation:
    def test_count_memo_survives_invalidating_another_target(self):
        backend = fresh_backend()
        source = (Atom("R", (x, y)),)
        target = (Atom("R", (a, b)), Atom("R", (b, c)))
        unrelated = (Atom("R", (c, c)),)

        assert backend.count(source, target) == 2
        backend.count(source, unrelated)
        dropped = backend.cache.invalidate(unrelated)
        assert dropped >= 2  # the unrelated plan/index/result entries only

        hits_before = backend.cache.result_stats.hits
        assert backend.count(source, target) == 2
        assert backend.cache.result_stats.hits == hits_before + 1

    def test_exists_memo_survives_invalidating_another_target(self):
        backend = fresh_backend()
        source = (Atom("R", (x, x)),)
        target = (Atom("R", (a, a)),)
        unrelated = (Atom("S", (a, b)),)

        assert backend.exists(source, target)
        backend.exists(source, unrelated)
        backend.cache.invalidate(unrelated)

        hits_before = backend.cache.result_stats.hits
        assert backend.exists(source, target)
        assert backend.cache.result_stats.hits == hits_before + 1

    def test_invalidating_the_target_itself_forces_a_recompute(self):
        backend = fresh_backend()
        source = (Atom("R", (x, y)),)
        target = (Atom("R", (a, b)),)
        backend.count(source, target)
        backend.cache.invalidate(target)
        misses_before = backend.cache.result_stats.misses
        backend.count(source, target)
        assert backend.cache.result_stats.misses == misses_before + 1

    def test_plan_for_unrelated_target_still_hits_after_invalidate(self):
        backend = fresh_backend()
        source = (Atom("R", (x, y)),)
        target = (Atom("R", (a, b)),)
        unrelated = (Atom("R", (b, a)),)
        backend.plan(source, target)
        backend.plan(source, unrelated)
        backend.cache.invalidate(unrelated)
        hits_before = backend.cache.plan_stats.hits
        # A fresh container misses the identity memo, so the lookup reaches
        # the fingerprint-keyed plan layer.
        backend.plan(source, list(target))
        assert backend.cache.plan_stats.hits == hits_before + 1


class TestInvalidationCoversEveryLayer:
    """No stale verdict survives an instance mutation — in *any* layer.

    The interned backend stores its entries through the
    ``index_entry``/``plan_entry`` hooks and tags its result memos with the
    backend name; a targeted invalidation must sweep all three layers, and
    propagate to an attached persistent store (covered in
    ``test_persist.py``).
    """

    def test_interned_backend_entries_are_swept(self):

        cache = EngineCache()
        backend = InternedBackend(cache=cache)
        source = (Atom("R", (x, y)),)
        target = (Atom("R", (a, b)), Atom("R", (b, c)))
        unrelated = (Atom("R", (c, c)),)
        assert backend.count(source, target) == 2
        backend.count(source, unrelated)

        dropped = cache.invalidate(target)
        # The target's interned index entry, which holds its bound plans,
        # and its result memo.
        assert dropped == 2

        # The invalidated target recomputes (miss), the unrelated one hits.
        misses_before = cache.result_stats.misses
        assert backend.count(source, target) == 2
        assert cache.result_stats.misses == misses_before + 1
        hits_before = cache.result_stats.hits
        backend.count(source, unrelated)
        assert cache.result_stats.hits == hits_before + 1

    def test_exotic_plan_entry_keys_do_not_crash_the_sweep(self):
        # Regression: the plans-layer predicate indexed key[1] blindly.
        cache = EngineCache()
        cache.plan_entry("not-a-tuple", lambda: "entry")
        cache.plan_entry((42,), lambda: "entry")
        assert cache.invalidate((Atom("R", (a, b)),)) == 0


class TestStatsCountersUnderSweeps:
    def test_repeated_counts_reuse_one_plan(self):
        backend = fresh_backend()
        source = (Atom("R", (x, y)),)
        target = (Atom("R", (a, b)), Atom("R", (a, c)))
        counts = [backend.count(source, target, {x: value}) for value in (a, b, c)]
        assert counts == [2, 0, 0]
        # One plan compilation, shared across the whole sweep: the plan
        # layer serves the two repeats.
        assert backend.cache.plan_stats.misses == 1
        assert backend.cache.plan_stats.hits == 2

    def test_one_evaluator_enumerates_once_for_many_bags(self):
        backend = fresh_backend()
        query = parse_cq("q(x) <- R(x, y)")
        bags = [
            BagInstance({Atom("R", (a, b)): 1}),
            BagInstance({Atom("R", (a, b)): 2}),
            BagInstance({Atom("R", (a, b)): 5}),
        ]
        before = backend.cache.snapshot()
        universe = [fact for bag in bags for fact, _ in bag.items()]
        evaluator = BagBatchEvaluator(query, universe, backend=backend)
        answers = [evaluator.evaluate(bag) for bag in bags]
        assert [answer[(a,)] for answer in answers] == [1, 2, 5]
        delta = snapshot_delta(backend.cache.snapshot(), before)
        plan_hits, plan_misses, _ = delta["plans"]
        assert plan_misses == 1  # one shared enumeration, not one per bag
        assert plan_hits == 0

    def test_snapshot_delta_and_merge(self):
        backend = fresh_backend()
        source = (Atom("R", (x, y)),)
        target = (Atom("R", (a, b)),)
        before = backend.cache.snapshot()
        backend.count(source, target)
        backend.count(source, target)
        delta = snapshot_delta(backend.cache.snapshot(), before)
        assert delta["results"] == (1, 1, 0)
        merged = merge_snapshots([delta, delta])
        assert merged["results"] == (2, 2, 0)
        assert merge_snapshots([]) == {}
