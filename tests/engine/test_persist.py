"""The persistent cache tier: key discipline, corruption tolerance, invalidation.

The contract under test (see ``repro.engine.persist``): a row is served
only when *all four* key components match — structural digest, backend
name, limits fingerprint, schema version — and every storage-level
failure (garbage blobs, truncated files, a store that is not SQLite at
all) degrades to a *counted* miss, never a wrong answer or an exception.
"""

import pickle
import sqlite3
import time

import pytest

from repro.cli import main
from repro.core.probe_tuples import most_general_probe_tuple
from repro.engine import EngineCache, persistent_digest
from repro.engine.persist import MISS, PersistentCache
from repro.queries.parser import parse_cq
from repro.relational.atoms import Atom
from repro.relational.terms import Constant, Variable
from repro.session import Session

x, y = Variable("x"), Variable("y")
a, b, c = Constant("a"), Constant("b"), Constant("c")


def memo_key(target):
    """A session decision-memo key carrying a structured component."""
    return ("session", ("decide", target, "q1", "q2"))


TARGET = frozenset({Atom("R", (a, b)), Atom("R", (b, c))})
CONTAINEE = parse_cq("q1(x, y) <- R(x, y), R(y, x)")
CONTAINING = parse_cq("q2(x, y) <- R(x, y), R(y, z)")


class TestRoundTrip:
    def test_result_row_round_trips(self, tmp_path):
        store = PersistentCache(tmp_path / "store.db", backend="interned")
        key = memo_key(TARGET)
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
        key = memo_key(TARGET)
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
        store.store("results", memo_key(target), 1)
        assert store.load("results", memo_key(other)) is MISS
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

    def test_engine_answer_keys_never_persist(self, tmp_path):
        # The engine caches no count/exists answers; a key of the layout it
        # once wrote is ineligible, in and out.
        key = ("count-exists", TARGET, frozenset({Atom("R", (x, y))}), frozenset(), "count", "interned")
        store = PersistentCache(tmp_path / "store.db")
        assert not store.store("results", key, 2)
        assert store.load("results", key) is MISS
        assert store.stats.lookups == 0
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
    def test_decision_memos_warm_across_sessions(self, tmp_path):
        path = tmp_path / "store.db"

        cold = Session(persist_path=path)
        verdict = cold.decide(CONTAINEE, CONTAINING).verdict
        assert cold.persistent.stats.stores == 1  # the memo; plans never persist
        cold.close()

        warm = Session(persist_path=path)
        assert warm.decide(CONTAINEE, CONTAINING).verdict == verdict
        assert warm.persistent.stats.hits == 1
        # A persistent hit is still an in-memory miss: the layer counters
        # keep measuring this process's working set.
        assert warm.cache.result_stats.misses == 1
        assert warm.cache.result_stats.hits == 0
        warm.close()

    def test_targeted_invalidation_leaves_the_store_alone(self, tmp_path):
        path = tmp_path / "store.db"

        session = Session(persist_path=path)
        session.decide(CONTAINEE, CONTAINING)
        # The one target the decision interned: the grounded containee.
        grounded = CONTAINEE.ground(most_general_probe_tuple(CONTAINEE))
        assert session.cache.invalidate(grounded.body_atoms()) == 1
        assert session.persistent.stats.invalidated == 0
        assert session.persistent.info()["entries"] == 1
        session.close()

        # A fresh process still answers the request from the store: its
        # memo is keyed by the request, not by a target.
        fresh = Session(persist_path=path)
        fresh.decide(CONTAINEE, CONTAINING)
        assert fresh.persistent.stats.hits == 1
        fresh.close()

    def test_invalidate_all_clears_the_store_too(self, tmp_path):
        path = tmp_path / "store.db"
        session = Session(persist_path=path)
        session.decide(CONTAINEE, CONTAINING)
        assert session.persistent.info()["entries"] == 1
        assert session.cache.invalidate() > 0
        assert session.persistent.info()["entries"] == 0
        session.close()

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
        key = memo_key(TARGET)
        assert cache.result(key, lambda: "verdict") == "verdict"
        assert store.stats.stores == 1
        cache.attach_persistent(None)
        lookups_before = store.stats.lookups
        cache.clear()
        assert cache.result(key, lambda: "recomputed") == "recomputed"
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


class TestStoresWithATargetColumn:
    """Stores whose rows once carried a target digest still open and serve.

    Such a store has a ``target`` column, an index on it and
    ``count``/``exists`` answer rows next to its session rows.  The
    session rows must keep hitting, new rows must still be written, and the
    maintenance commands must still work; the answer rows are never read.
    """

    DDL = (
        "CREATE TABLE entries ("
        " layer TEXT NOT NULL, key TEXT NOT NULL, backend TEXT NOT NULL,"
        " limits TEXT NOT NULL, schema INTEGER NOT NULL,"
        " target TEXT NOT NULL DEFAULT '', value BLOB NOT NULL,"
        " created REAL NOT NULL, accessed REAL NOT NULL DEFAULT 0,"
        " PRIMARY KEY (layer, key, backend, limits, schema))",
        "CREATE INDEX entries_target ON entries(target)",
    )

    def store_with_target_column(self, tmp_path):
        """The session row of CONTAINEE ⊑ CONTAINING plus three answer rows."""
        fresh = tmp_path / "fresh.db"
        session = Session(persist_path=fresh)
        session.decide(CONTAINEE, CONTAINING)
        session.close()
        with sqlite3.connect(fresh) as source:
            (row,) = source.execute(
                "SELECT layer, key, backend, limits, schema, value, created FROM entries"
            ).fetchall()
        path = tmp_path / "store.db"
        with sqlite3.connect(path) as raw:
            for statement in self.DDL:
                raw.execute(statement)
            raw.execute(
                "INSERT INTO entries (layer, key, backend, limits, schema, target, value, created)"
                " VALUES (?, ?, ?, ?, ?, '', ?, ?)",
                row,
            )
            _, _, backend, limits, schema, _, _ = row
            for index, target in enumerate((TARGET, frozenset({Atom("R", (c, c))}))):
                for mode in ("count", "exists")[: 2 - index]:
                    key = ("count-exists", target, frozenset({Atom("R", (x, y))}), frozenset(), mode, backend)
                    raw.execute(
                        "INSERT INTO entries"
                        " (layer, key, backend, limits, schema, target, value, created)"
                        " VALUES ('results', ?, ?, ?, ?, ?, ?, ?)",
                        (
                            persistent_digest(key),
                            backend,
                            limits,
                            schema,
                            persistent_digest(target),
                            pickle.dumps(2),
                            time.time() - 3600.0,
                        ),
                    )
        return path

    def test_session_rows_still_hit_and_new_rows_are_written(self, tmp_path):
        path = self.store_with_target_column(tmp_path)
        expected = Session().decide(CONTAINEE, CONTAINING)
        session = Session(persist_path=path)
        outcome = session.decide(CONTAINEE, CONTAINING)
        assert outcome.verdict == expected.verdict
        assert repr(outcome.certificate) == repr(expected.certificate)
        stats = session.persistent.stats
        assert (stats.hits, stats.misses, stats.errors) == (1, 0, 0)
        session.decide(parse_cq("q3(x, y) <- R(x, y), R(x, x)"), CONTAINING)
        assert (stats.stores, stats.errors) == (1, 0)
        assert session.persistent.info()["entries"] == 5
        session.close()

    def test_cache_info_and_prune_lru_still_work(self, tmp_path, capsys):
        path = self.store_with_target_column(tmp_path)
        assert main(["cache", "info", str(path)]) == 0
        assert "entries: 4" in capsys.readouterr().out
        # The session row is the newest; the three answer rows go.
        assert main(["cache", "vacuum", str(path), "--prune-lru", "1"]) == 0
        assert "3 entries pruned, vacuumed" in capsys.readouterr().out
        assert main(["cache", "info", str(path)]) == 0
        assert "entries: 1" in capsys.readouterr().out
        session = Session(persist_path=path)
        session.decide(CONTAINEE, CONTAINING)
        assert session.persistent.stats.hits == 1
        session.close()
