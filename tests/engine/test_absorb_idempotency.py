"""Idempotent worker-delta absorption (satellite of the warm-start work).

``EngineCache.absorb_delta`` folds worker cache deltas into the parent's
statistics.  A chunk retried after a worker failure (or a caller replaying
the same delta) used to double-count: the merged statistics then claimed
more cache traffic than the fleet performed, which poisons every
hit-rate-based decision downstream.  Absorption is now idempotent per
token, and the parallel batch path tags every chunk.
"""

from repro.engine import EngineCache, merge_snapshots


DELTA = {"plans": (3, 2, 1), "results": (10, 5, 0)}


class TestTokenedAbsorption:
    def test_same_token_absorbs_once(self):
        cache = EngineCache()
        assert cache.absorb_delta(DELTA, token=("batch", 1, 0)) is True
        assert cache.absorb_delta(DELTA, token=("batch", 1, 0)) is False
        assert cache.plan_stats.hits == 3
        assert cache.plan_stats.misses == 2
        assert cache.plan_stats.evictions == 1
        assert cache.result_stats.hits == 10

    def test_distinct_tokens_both_absorb(self):
        cache = EngineCache()
        assert cache.absorb_delta(DELTA, token=("batch", 1, 0))
        assert cache.absorb_delta(DELTA, token=("batch", 1, 25))
        assert cache.plan_stats.hits == 6

    def test_retried_chunk_scenario_pins_merged_identity(self):
        # The fleet runs two chunks; chunk 0's delta arrives twice (retry).
        # The parent's statistics must equal the true two-chunk merge.
        cache = EngineCache()
        chunk0 = {"plans": (1, 4, 0), "results": (2, 2, 0)}
        chunk1 = {"plans": (0, 3, 0), "results": (5, 1, 0)}
        cache.absorb_delta(chunk0, token=("batch", 9, 0))
        cache.absorb_delta(chunk0, token=("batch", 9, 0))  # the retry's replay
        cache.absorb_delta(chunk1, token=("batch", 9, 25))
        expected = merge_snapshots([chunk0, chunk1])
        assert cache.snapshot() == {
            "plans": expected["plans"],
            "indexes": (0, 0, 0),
            "results": expected["results"],
        }

    def test_token_memory_is_bounded(self):
        cache = EngineCache()
        limit = EngineCache._MAX_ABSORB_TOKENS
        for index in range(limit + 10):
            cache.absorb_delta({"plans": (0, 0, 0)}, token=index)
        # The oldest tokens were forgotten; recent ones still dedupe.
        assert cache.absorb_delta({"plans": (1, 0, 0)}, token=limit + 9) is False
        assert cache.absorb_delta({"plans": (1, 0, 0)}, token=0) is True
