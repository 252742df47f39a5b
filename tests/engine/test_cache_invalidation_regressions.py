"""Regression tests: targeted invalidation, and stats under batch APIs.

These pin two behaviours the fuzz runner's stats aggregation relies on:

* ``EngineCache.invalidate(target)`` must be *surgical* — it drops that
  target's interned index entry (with the plans bound to it) and nothing
  else: other targets' entries, plan templates and session request memos
  survive and keep hitting;
* sweeps (repeated counts, one bag evaluator over many bags) must account
  their cache traffic in the same counters the one-shot calls use, so
  ``snapshot()`` deltas mean the same thing everywhere.

The engine caches compiled artefacts only: ``count`` and ``exists`` never
touch the results layer, which holds the session's request memos.
"""

from repro.core.probe_tuples import most_general_probe_tuple
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
from repro.session import Session

x, y = Variable("x"), Variable("y")
a, b, c = Constant("a"), Constant("b"), Constant("c")


def fresh_backend() -> InternedBackend:
    return InternedBackend(cache=EngineCache())


class TestEntriesSurviveUnrelatedInvalidation:
    def test_count_plan_survives_invalidating_another_target(self):
        backend = fresh_backend()
        source = (Atom("R", (x, y)),)
        target = (Atom("R", (a, b)), Atom("R", (b, c)))
        unrelated = (Atom("R", (c, c)),)

        assert backend.count(source, target) == 2
        backend.count(source, unrelated)
        dropped = backend.cache.invalidate(unrelated)
        assert dropped == 1  # the unrelated target's index entry only

        before = backend.cache.snapshot()
        assert backend.count(source, target) == 2
        delta = snapshot_delta(backend.cache.snapshot(), before)
        # The surviving target and its bound plan are reused: no rebuild,
        # no compile, and no answer cached anywhere.
        assert delta == {"plans": (1, 0, 0), "indexes": (1, 0, 0), "results": (0, 0, 0)}

    def test_exists_plan_survives_invalidating_another_target(self):
        backend = fresh_backend()
        source = (Atom("R", (x, x)),)
        target = (Atom("R", (a, a)),)
        unrelated = (Atom("S", (a, b)),)

        assert backend.exists(source, target)
        assert not backend.exists(source, unrelated)
        assert backend.cache.invalidate(unrelated) == 1

        before = backend.cache.snapshot()
        assert backend.exists(source, target)
        delta = snapshot_delta(backend.cache.snapshot(), before)
        assert delta == {"plans": (1, 0, 0), "indexes": (1, 0, 0), "results": (0, 0, 0)}

    def test_invalidating_the_target_itself_forces_a_rebuild(self):
        backend = fresh_backend()
        source = (Atom("R", (x, y)),)
        target = (Atom("R", (a, b)),)
        assert backend.count(source, target) == 1
        assert backend.cache.invalidate(target) == 1
        before = backend.cache.snapshot()
        assert backend.count(source, target) == 1
        delta = snapshot_delta(backend.cache.snapshot(), before)
        # The target is interned again; its plan is bound again from the
        # surviving template, which the plan layer serves without compiling.
        assert delta["indexes"] == (0, 1, 0)
        assert delta["plans"] == (1, 0, 0)

    def test_session_memo_survives_targeted_invalidation(self):
        session = Session()
        containee = parse_cq("q(x, y) <- R(x, y), R(y, x)")
        containing = parse_cq("p(x, y) <- R(x, y), R(y, z)")
        first = session.decide(containee, containing)
        # The one target the decision interned: the grounded containee.
        grounded = containee.ground(most_general_probe_tuple(containee))
        assert session.cache.invalidate(grounded.body_atoms()) == 1
        hits_before = session.cache.result_stats.hits
        second = session.decide(containee, containing)
        assert session.cache.result_stats.hits == hits_before + 1
        assert second.verdict == first.verdict

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
    """No stale artefact survives an instance mutation — in *any* layer.

    The interned backend stores its entries through the
    ``index_entry``/``plan_entry`` hooks and caches no answer: a targeted
    invalidation drops the target's index entry, which holds every plan
    bound to it, and leaves nothing keyed by that target behind (plan
    templates name no target).
    """

    def test_interned_backend_entries_are_swept(self):
        cache = EngineCache()
        backend = InternedBackend(cache=cache)
        source = (Atom("R", (x, y)),)
        target = (Atom("R", (a, b)), Atom("R", (b, c)))
        unrelated = (Atom("R", (c, c)),)
        assert backend.count(source, target) == 2
        backend.count(source, unrelated)
        assert cache.snapshot()["results"] == (0, 0, 0)  # no answer is cached

        dropped = cache.invalidate(target)
        # The target's interned index entry, which holds its bound plans.
        assert dropped == 1

        # The invalidated target is rebuilt (miss), the unrelated one hits
        # with its bound plan.
        misses_before = cache.index_stats.misses
        assert backend.count(source, target) == 2
        assert cache.index_stats.misses == misses_before + 1
        index_hits, plan_hits = cache.index_stats.hits, cache.plan_stats.hits
        plan_misses = cache.plan_stats.misses
        assert backend.count(source, unrelated) == 1
        assert cache.index_stats.hits == index_hits + 1
        assert cache.plan_stats.hits == plan_hits + 1
        assert cache.plan_stats.misses == plan_misses

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
        # One compile then one bound-plan reuse; one interned target then
        # one reuse; the results layer is never consulted by the engine.
        assert delta == {"plans": (1, 1, 0), "indexes": (1, 1, 0), "results": (0, 0, 0)}
        merged = merge_snapshots([delta, delta])
        assert merged == {"plans": (2, 2, 0), "indexes": (2, 2, 0), "results": (0, 0, 0)}
        assert merge_snapshots([]) == {}
