"""The persistent cache tier: key discipline, corruption tolerance, invalidation.

The contract under test (see ``repro.engine.persist``): a row is served
only when *all four* key components match — structural digest, backend
name, limits fingerprint, schema version — and every storage-level
failure (garbage blobs, truncated files, a store that is not SQLite at
all) degrades to a *counted* miss, never a wrong answer or an exception.
"""

import pickle
import sqlite3

import pytest

from repro.engine import EngineCache, InternedBackend
from repro.engine.persist import MISS, PersistentCache
from repro.relational.atoms import Atom
from repro.relational.terms import Constant, Variable

x, y = Variable("x"), Variable("y")
a, b, c = Constant("a"), Constant("b"), Constant("c")


def result_key(target, mode="count"):
    return ("count-exists", target, frozenset({Atom("R", (x, y))}), frozenset(), mode, "interned")


TARGET = frozenset({Atom("R", (a, b)), Atom("R", (b, c))})


class TestRoundTrip:
    def test_result_row_round_trips(self, tmp_path):
        store = PersistentCache(tmp_path / "store.db", backend="interned")
        key = result_key(TARGET)
        assert store.load("results", key) is MISS
        assert store.stats.misses == 1
        assert store.store("results", key, {"payload": 42})
        assert store.load("results", key) == {"payload": 42}
        assert store.stats.hits == 1
        store.close()

    def test_rows_survive_reopening(self, tmp_path):
        path = tmp_path / "store.db"
        key = ("session", ("memo", "q1", "q2"))
        with PersistentCache(path) as first:
            first.store("results", key, "verdict")
        with PersistentCache(path) as second:
            assert second.load("results", key) == "verdict"

    def test_none_is_a_valid_cached_value(self, tmp_path):
        store = PersistentCache(tmp_path / "store.db")
        key = ("session", ("memo",))
        store.store("results", key, None)
        assert store.load("results", key) is None
        assert store.stats.hits == 1
        store.close()


class TestFingerprintComponentMismatchIsAMiss:
    def test_backend_mismatch(self, tmp_path):
        path = tmp_path / "store.db"
        key = result_key(TARGET)
        with PersistentCache(path, backend="naive") as writer:
            writer.store("results", key, 2)
        with PersistentCache(path, backend="interned") as reader:
            assert reader.load("results", key) is MISS
            assert reader.stats.misses == 1

    def test_limits_mismatch(self, tmp_path):
        path = tmp_path / "store.db"
        key = ("session", ("memo",))
        with PersistentCache(path, limits_fingerprint="budget-small") as writer:
            writer.store("results", key, True)
        with PersistentCache(path, limits_fingerprint="budget-large") as reader:
            assert reader.load("results", key) is MISS

    def test_schema_version_mismatch(self, tmp_path):
        path = tmp_path / "store.db"
        key = ("session", ("memo",))
        with PersistentCache(path, schema_version=1) as writer:
            writer.store("results", key, True)
        with PersistentCache(path, schema_version=2) as reader:
            assert reader.load("results", key) is MISS

    def test_structural_key_mismatch(self, tmp_path):
        store = PersistentCache(tmp_path / "store.db")
        target = frozenset({Atom("R", (a, b))})
        other = frozenset({Atom("R", (b, a))})
        store.store("results", result_key(target), 1)
        assert store.load("results", result_key(other)) is MISS
        store.close()


class TestEligibility:
    @pytest.mark.parametrize(
        "key",
        [
            # Interned plan keys carry a process-local dictionary serial.
            (frozenset(), frozenset(), frozenset(), "interned", 7),
            (frozenset(), frozenset(), frozenset()),
        ],
    )
    def test_plan_layer_never_persists(self, tmp_path, key):
        store = PersistentCache(tmp_path / "store.db")
        assert not store.store("plans", key, "never")
        assert store.load("plans", key) is MISS
        assert store.stats.lookups == 0  # ineligible traffic is not counted
        store.close()

    def test_index_layer_never_persists(self, tmp_path):
        store = PersistentCache(tmp_path / "store.db")
        assert not store.store("indexes", frozenset({Atom("R", (a, b))}), "index")
        assert store.info()["entries"] == 0
        store.close()

    def test_unpicklable_value_is_counted_skipped(self, tmp_path):
        store = PersistentCache(tmp_path / "store.db")
        assert not store.store("results", ("session", ("memo",)), lambda: None)
        assert store.stats.skipped == 1
        store.close()


class TestCorruptionTolerance:
    def test_garbage_blob_is_a_counted_miss(self, tmp_path):
        path = tmp_path / "store.db"
        key = ("session", ("memo",))
        with PersistentCache(path) as writer:
            writer.store("results", key, "good")
        with sqlite3.connect(path) as connection:
            connection.execute("UPDATE entries SET value = ?", (b"\x80garbage",))
        with PersistentCache(path) as reader:
            assert reader.load("results", key) is MISS
            assert reader.stats.errors == 1
            assert reader.stats.misses == 1

    def test_truncated_file_degrades_to_misses(self, tmp_path):
        path = tmp_path / "store.db"
        with PersistentCache(path) as writer:
            writer.store("results", ("session", ("memo",)), "good")
            writer.vacuum()  # fold the WAL into the main file before tearing it
        with open(path, "r+b") as handle:
            handle.truncate(100)
        store = PersistentCache(path)
        assert store.load("results", ("session", ("memo",))) is MISS
        assert store.stats.errors >= 1
        store.close()

    def test_non_database_file_degrades_to_misses(self, tmp_path):
        path = tmp_path / "store.db"
        path.write_bytes(b"this is not a sqlite database, not even close")
        store = PersistentCache(path)
        assert store.load("results", ("session", ("memo",))) is MISS
        assert not store.store("results", ("session", ("memo",)), "value")
        assert store.stats.errors >= 1
        store.close()

    def test_closed_store_degrades_to_misses(self, tmp_path):
        store = PersistentCache(tmp_path / "store.db")
        store.close()
        assert store.load("results", ("session", ("memo",)), ) is MISS
        assert not store.store("results", ("session", ("memo",)), "value")


class TestInvalidation:
    def test_invalidate_target_drops_matching_rows_only(self, tmp_path):
        store = PersistentCache(tmp_path / "store.db")
        target = frozenset({Atom("R", (a, b))})
        other = frozenset({Atom("R", (b, c))})
        store.store("results", result_key(target, "exists"), True)
        store.store("results", result_key(target), 3)
        store.store("results", result_key(other), "survivor")
        assert store.invalidate_target(target) == 2
        assert store.load("results", result_key(target, "exists")) is MISS
        assert store.load("results", result_key(target)) is MISS
        assert store.load("results", result_key(other)) == "survivor"
        assert store.stats.invalidated == 2
        store.close()

    def test_clear_and_vacuum_and_info(self, tmp_path):
        store = PersistentCache(tmp_path / "store.db")
        store.store("results", ("session", ("memo",)), "value")
        info = store.info()
        assert info["status"] == "ok"
        assert info["entries"] == 1
        assert info["layers"] == {"results": 1}
        assert store.clear() == 1
        assert store.vacuum()
        assert store.info()["entries"] == 0
        store.close()


class TestEngineCacheIntegration:
    def test_backend_memos_warm_across_caches(self, tmp_path):
        path = tmp_path / "store.db"
        source = (Atom("R", (x, y)),)
        target = (Atom("R", (a, b)), Atom("R", (b, c)))

        cold_cache = EngineCache()
        cold_cache.attach_persistent(PersistentCache(path, backend="interned"))
        cold = InternedBackend(cache=cold_cache)
        assert cold.count(source, target) == 2
        assert cold_cache.persistent.stats.stores == 1  # the memo; plans never persist
        cold_cache.persistent.close()

        warm_cache = EngineCache()
        warm_cache.attach_persistent(PersistentCache(path, backend="interned"))
        warm = InternedBackend(cache=warm_cache)
        assert warm.count(source, target) == 2
        assert warm_cache.persistent.stats.hits == 1
        # A persistent hit is still an in-memory miss: the layer counters
        # keep measuring this process's working set.
        assert warm_cache.result_stats.misses == 1
        assert warm_cache.result_stats.hits == 0
        warm_cache.persistent.close()

    def test_invalidate_propagates_to_the_store(self, tmp_path):
        path = tmp_path / "store.db"
        source = (Atom("R", (x, y)),)
        target = (Atom("R", (a, b)),)

        cache = EngineCache()
        cache.attach_persistent(PersistentCache(path, backend="interned"))
        backend = InternedBackend(cache=cache)
        backend.count(source, target)
        assert cache.invalidate(target) > 0
        cache.persistent.close()

        # A fresh process must not see any row for the invalidated target.
        fresh = EngineCache()
        fresh.attach_persistent(PersistentCache(path, backend="interned"))
        rebuilt = InternedBackend(cache=fresh)
        stats = fresh.persistent.stats
        assert rebuilt.count(source, target) == 1
        assert stats.hits == 0
        fresh.persistent.close()

    def test_invalidate_all_clears_the_store_too(self, tmp_path):
        path = tmp_path / "store.db"
        cache = EngineCache()
        cache.attach_persistent(PersistentCache(path, backend="interned"))
        backend = InternedBackend(cache=cache)
        backend.count((Atom("R", (x, y)),), (Atom("R", (a, b)),))
        assert cache.invalidate() > 0
        assert cache.persistent.info()["entries"] == 0
        cache.persistent.close()

    def test_invalidate_survives_non_tuple_plan_entry_keys(self, tmp_path):
        # Regression: the plans-layer sweep used to index key[1]
        # unconditionally, crashing on any plan_entry key that is not a
        # tuple of length ≥ 2.
        cache = EngineCache()
        cache.plan_entry("exotic-string-key", lambda: "plan")
        cache.plan_entry(("short",), lambda: "plan")
        assert cache.invalidate((Atom("R", (a, b)),)) == 0
        assert cache.plan_entry("exotic-string-key", lambda: "rebuilt") == "plan"

    def test_detach_stops_consulting_the_store(self, tmp_path):
        path = tmp_path / "store.db"
        cache = EngineCache()
        store = PersistentCache(path, backend="interned")
        cache.attach_persistent(store)
        backend = InternedBackend(cache=cache)
        backend.count((Atom("R", (x, y)),), (Atom("R", (a, b)),))
        cache.attach_persistent(None)
        lookups_before = store.stats.lookups
        cache.clear()
        backend.count((Atom("R", (x, y)),), (Atom("R", (a, b)),))
        assert store.stats.lookups == lookups_before
        store.close()


class TestSchemaBumpStory:
    def test_stale_schema_rows_are_invisible_not_fatal(self, tmp_path):
        """The documented bump rule: old rows miss, new rows accumulate."""
        path = tmp_path / "store.db"
        key = ("session", ("memo",))
        with PersistentCache(path, schema_version=1) as old:
            old.store("results", key, pickle.dumps("an old layout, opaque here"))
        with PersistentCache(path, schema_version=2) as new:
            assert new.load("results", key) is MISS
            new.store("results", key, "the new layout")
            assert new.load("results", key) == "the new layout"
            assert sorted(new.info()["schemas"]) == [1, 2]


class TestPruning:
    """``prune_age`` / ``prune_lru``: pruned rows read as misses, never errors."""

    @staticmethod
    def memo_key(index):
        return ("session", ("memo", index))

    def seeded(self, tmp_path, count=5):
        store = PersistentCache(tmp_path / "store.db")
        for index in range(count):
            assert store.store("results", self.memo_key(index), index)
        return store

    def test_prune_lru_keeps_the_most_recently_used(self, tmp_path):
        store = self.seeded(tmp_path)
        # Touch two entries so their access time outranks the others.
        assert store.load("results", self.memo_key(1)) == 1
        assert store.load("results", self.memo_key(3)) == 3
        assert store.prune_lru(2) == 3
        survivors = {
            index
            for index in range(5)
            if store.load("results", self.memo_key(index)) is not MISS
        }
        assert survivors == {1, 3}
        assert store.stats.errors == 0  # pruned rows are misses, not failures
        assert store.stats.invalidated == 3
        store.close()

    def test_prune_lru_with_enough_room_drops_nothing(self, tmp_path):
        store = self.seeded(tmp_path)
        assert store.prune_lru(10) == 0
        assert store.info()["entries"] == 5
        store.close()

    def test_prune_age_drops_only_stale_rows(self, tmp_path):
        store = self.seeded(tmp_path)
        # Backdate two rows a week; everything else was written just now.
        week = 7 * 86400.0
        with store._lock:
            store._connection.execute(
                "UPDATE entries SET created = created - ?, accessed = 0 "
                "WHERE rowid IN (1, 2)",
                (week,),
            )
        assert store.prune_age(1.0) == 2
        assert store.load("results", self.memo_key(0)) is MISS
        assert store.load("results", self.memo_key(1)) is MISS
        assert store.load("results", self.memo_key(2)) == 2
        assert store.stats.errors == 0
        store.close()

    def test_recent_access_rescues_an_old_row_from_age_pruning(self, tmp_path):
        store = self.seeded(tmp_path, count=2)
        week = 7 * 86400.0
        with store._lock:
            store._connection.execute(
                "UPDATE entries SET created = created - ?", (week,)
            )
        # A fresh hit stamps the access time, so MAX(accessed, created)
        # keeps the touched row inside the window.
        assert store.load("results", self.memo_key(0)) == 0
        assert store.prune_age(1.0) == 1
        assert store.load("results", self.memo_key(0)) == 0
        assert store.load("results", self.memo_key(1)) is MISS
        store.close()

    def test_prune_on_a_dead_store_is_a_counted_noop(self, tmp_path):
        path = tmp_path / "store.db"
        path.write_text("this is not sqlite")
        store = PersistentCache(path)
        assert store.prune_age(1.0) == 0
        assert store.prune_lru(1) == 0
        store.close()


class TestAccessedColumnMigration:
    """Stores written before the ``accessed`` column still open and prune."""

    def legacy_store(self, tmp_path):
        """Build a store, then strip it back to the pre-eviction schema."""
        path = tmp_path / "store.db"
        with PersistentCache(path) as store:
            assert store.store("results", ("session", ("memo",)), "value")
        with sqlite3.connect(path) as raw:
            raw.execute("ALTER TABLE entries DROP COLUMN accessed")
        return path

    def test_reopening_migrates_and_backfills(self, tmp_path):
        path = self.legacy_store(tmp_path)
        with PersistentCache(path) as store:
            assert store.load("results", ("session", ("memo",))) == "value"
            with store._lock:
                row = store._connection.execute(
                    "SELECT accessed, created FROM entries"
                ).fetchone()
            # Backfilled access times start at the creation time (then move
            # forward as hits stamp them).
            assert row[0] >= row[1] > 0

    def test_migrated_store_prunes_by_age(self, tmp_path):
        path = self.legacy_store(tmp_path)
        with PersistentCache(path) as store:
            assert store.prune_age(1.0) == 0  # created just now: kept
            with store._lock:
                store._connection.execute(
                    "UPDATE entries SET created = created - ?, accessed = 0",
                    (7 * 86400.0,),
                )
            assert store.prune_age(1.0) == 1
            assert store.load("results", ("session", ("memo",))) is MISS
            assert store.stats.errors == 0
