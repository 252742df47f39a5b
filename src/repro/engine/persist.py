"""The persistent cache tier: session decision memos that survive restarts.

Without it every process recomputes from scratch: a service restart, a
parallel worker, or the next CI corpus replay always starts cold.
:class:`PersistentCache` is a disk-backed tier (stdlib ``sqlite3`` in WAL
mode) that an :class:`~repro.engine.cache.EngineCache` consults *behind*
its in-memory result layer: an in-memory miss falls through to the store,
and a freshly computed entry is written back — so whole session decision
verdicts warm across processes, workers and runs.

**Key discipline.**  Rows are keyed by a four-part fingerprint —
``(structural key digest, backend name, limits fingerprint, schema
version)``:

* the structural digest is :func:`~repro.engine.fingerprints.persistent_digest`
  over the very same key structure the in-memory layer uses, canonically
  serialized (sorted containers, named fields, no ``hash()``), so it is
  identical in every process regardless of ``PYTHONHASHSEED``;
* the backend name and the limits fingerprint come from the owning
  session's configuration (a different backend or a different enumeration
  budget must never serve the other's rows);
* :data:`SCHEMA_VERSION` stamps the pickled-value layout.  **Bump it
  whenever the pickled shape of any persisted value changes** (decision-result
  fields, certificate representation): old rows then
  silently miss instead of unpickling into the wrong shape.

Any component mismatch is a miss — never a wrong answer.

**What persists.**  Only session decision memos (``("session", …)`` keys
in the results layer) whose keys canonically serialize and whose values
pickle.  The engine caches no answers of its own, and compiled plans and
interned targets are keyed by a process-local term-dictionary serial and
are cheap per-process rebuilds, so they are never persisted.  Stores
written when ``count``/``exists`` answers were persisted still open: their
``target`` column is left in place (new rows take its default) and those
rows are never read again; LRU pruning drops them like any other row.

**Corruption tolerance.**  Every read path — connect, query, unpickle — is
wrapped: a torn write, a truncated file, a garbage blob or a concurrent
writer's lock degrades to a *counted* miss (``stats.errors``) and execution
falls through to a fresh computation.  The store can be deleted at any
moment; nothing above it can tell except by speed.

**Concurrency.**  WAL mode plus short ``BEGIN IMMEDIATE`` write
transactions let parallel workers share one store: readers never block on
the writer, writers queue behind a busy timeout, and a worker that loses
the race simply recomputes.  One connection per :class:`PersistentCache`,
guarded by a lock, so a session can be driven from multiple threads.

**Resilience.**  Transient ``SQLITE_BUSY``-class failures are retried a
bounded number of times with jittered exponential backoff
(``stats.retries``); persistent failures trip a :class:`CircuitBreaker`
that short-circuits the store for a cooldown period
(``stats.breaker_skipped`` counts the skipped round-trips) while the
session keeps serving from the in-memory tier.  A half-open probe
re-enables the store after the cooldown.  The named fault-injection sites
``persist.connect`` / ``persist.load`` / ``persist.store``
(:mod:`repro.faults`) exercise exactly these paths deterministically.
"""

from __future__ import annotations

import os
import pickle
import random
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Hashable, TypeVar

from repro.engine.fingerprints import UnpersistableKeyError, persistent_digest
from repro.faults.plan import check as _fault_check

__all__ = ["MISS", "CircuitBreaker", "PersistStats", "PersistentCache", "SCHEMA_VERSION"]

_T = TypeVar("_T")


class _Miss:
    """The sentinel a failed/ineligible persistent lookup returns.

    A dedicated type (rather than ``None``) because ``None`` is a perfectly
    valid cached value.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "MISS"


MISS = _Miss()

#: The pickled-value layout version.  Bump on ANY change to the pickled
#: shape of persisted values (decision-result fields, certificate
#: representation) or to the set of persisted value types; old rows then
#: miss instead of loading the wrong shape.  The rule is documented in
#: README "Warm starts".
SCHEMA_VERSION = 5


@dataclass
class PersistStats:
    """Counters for the persistent tier (separate from the LRU layers').

    ``errors`` counts every corruption-tolerant degradation: failed
    connects, locked/failed transactions, torn blobs, unpickle failures.
    ``skipped`` counts store attempts for entries that cannot soundly
    persist (unpicklable values).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0
    skipped: int = 0
    invalidated: int = 0
    retries: int = 0
    breaker_skipped: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def describe(self) -> str:
        return (
            f"{self.hits} hits / {self.misses} misses ({self.hit_rate:.0%}), "
            f"{self.stores} stored, {self.errors} errors, "
            f"{self.skipped} skipped, {self.invalidated} invalidated, "
            f"{self.retries} retries, {self.breaker_skipped} breaker-skipped"
        )


#: Bounded retries for transient (SQLITE_BUSY-class) failures, with
#: jittered exponential backoff starting at ``_RETRY_BASE_DELAY`` seconds.
_RETRY_LIMIT = 3
_RETRY_BASE_DELAY = 0.002


def _is_transient(error: sqlite3.OperationalError) -> bool:
    """Is this a busy/locked-class failure worth retrying?"""
    text = str(error).lower()
    return "locked" in text or "busy" in text


class CircuitBreaker:
    """A closed → open → half-open breaker guarding the persist tier.

    ``record_failure`` after ``threshold`` *consecutive* failures (or any
    half-open probe failure) opens the breaker; while open, :meth:`allow`
    short-circuits store round-trips until ``cooldown`` seconds elapse,
    then admits one half-open probe whose success closes the breaker.
    State transitions are appended to :attr:`history` (bounded) with
    monotonic timestamps for reporting.
    """

    def __init__(self, threshold: int = 5, cooldown: float = 1.0) -> None:
        if threshold < 1:
            raise ValueError(f"breaker threshold must be positive, got {threshold}")
        if cooldown < 0:
            raise ValueError(f"breaker cooldown must be non-negative, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = "closed"
        self.consecutive_failures = 0
        self.opens = 0
        self.half_opens = 0
        self.closes = 0
        self._opened_at = 0.0
        self.history: list[tuple[str, float]] = []

    @property
    def transitions(self) -> tuple[str, ...]:
        """The state-transition sequence (no timestamps), oldest first."""
        return tuple(state for state, _ in self.history)

    def allow(self) -> bool:
        """May the caller attempt a store round-trip right now?"""
        if self.state == "open":
            if time.monotonic() - self._opened_at < self.cooldown:
                return False
            self._transition("half-open")
            self.half_opens += 1
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state != "closed":
            self._transition("closed")
            self.closes += 1

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == "half-open" or (
            self.state == "closed" and self.consecutive_failures >= self.threshold
        ):
            self._transition("open")
            self.opens += 1
        if self.state == "open":
            self._opened_at = time.monotonic()

    def _transition(self, state: str) -> None:
        self.state = state
        self.history.append((state, time.monotonic()))
        del self.history[:-64]

    def describe(self) -> str:
        return (
            f"breaker {self.state} ({self.opens} opens, "
            f"{self.half_opens} half-opens, {self.closes} closes)"
        )


_CREATE_TABLE = """
CREATE TABLE IF NOT EXISTS entries (
    layer    TEXT    NOT NULL,
    key      TEXT    NOT NULL,
    backend  TEXT    NOT NULL,
    limits   TEXT    NOT NULL,
    schema   INTEGER NOT NULL,
    value    BLOB    NOT NULL,
    created  REAL    NOT NULL,
    accessed REAL    NOT NULL DEFAULT 0,
    PRIMARY KEY (layer, key, backend, limits, schema)
)
"""

#: Migration for stores created before the ``accessed`` column existed
#: (pre-eviction schema).  Rows from such stores start with their creation
#: time as the access time, which is the best information available.
_ADD_ACCESSED = "ALTER TABLE entries ADD COLUMN accessed REAL NOT NULL DEFAULT 0"
_BACKFILL_ACCESSED = "UPDATE entries SET accessed = created WHERE accessed = 0"


class PersistentCache:
    """A disk-backed cache tier layered behind an :class:`EngineCache`.

    Parameters
    ----------
    path:
        The SQLite store file (created, with parent directories, on first
        use).  Many processes may share one path.
    backend:
        The owning session's backend name — part of every row key.
    limits_fingerprint:
        The owning session's limits digest — part of every row key.  Use
        :func:`~repro.engine.fingerprints.persistent_digest` on the
        session's :class:`~repro.session.Limits`.
    schema_version:
        Overridable for tests; defaults to :data:`SCHEMA_VERSION`.
    breaker_threshold / breaker_cooldown:
        Circuit-breaker tuning (consecutive failures to open; seconds
        before the half-open probe).  The defaults suit production; tests
        and chaos campaigns shrink them.
    """

    def __init__(
        self,
        path: str | Path,
        backend: str = "interned",
        limits_fingerprint: str = "",
        schema_version: int = SCHEMA_VERSION,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 1.0,
    ) -> None:
        self.path = Path(path)
        self.backend = backend
        self.limits_fingerprint = limits_fingerprint
        self.schema_version = int(schema_version)
        self.stats = PersistStats()
        self.breaker = CircuitBreaker(breaker_threshold, breaker_cooldown)
        # Jitter decorrelates concurrent processes' backoff schedules; it
        # only shapes sleep durations, never any persisted value.
        self._jitter = random.Random(os.getpid())
        self._lock = threading.Lock()
        self._connection: sqlite3.Connection | None = None
        self._dead = False
        self._open()

    # ------------------------------------------------------------------ #
    # Resilience helpers: injection, retries
    # ------------------------------------------------------------------ #
    @staticmethod
    def _inject(site: str) -> None:
        """Apply an armed fault at *site* (no-op when no plan is armed)."""
        rule = _fault_check(site)
        if rule is None:
            return
        if rule.action == "latency":
            time.sleep(rule.delay_ms / 1000.0)
            return
        if rule.action == "busy":
            raise sqlite3.OperationalError(f"database is locked (injected at {site})")
        raise sqlite3.OperationalError(f"disk I/O error (injected at {site})")

    def _with_retries(self, operation: Callable[[], _T]) -> _T:
        """Run *operation*, retrying transient failures with jittered backoff."""
        attempt = 0
        while True:
            try:
                return operation()
            except sqlite3.OperationalError as error:
                if not _is_transient(error) or attempt >= _RETRY_LIMIT:
                    raise
                self.stats.retries += 1
                delay = _RETRY_BASE_DELAY * (2**attempt) * (0.5 + self._jitter.random())
                time.sleep(delay)
                attempt += 1

    # ------------------------------------------------------------------ #
    # Connection lifecycle
    # ------------------------------------------------------------------ #
    def _open(self) -> None:
        try:
            self._inject("persist.connect")
            self.path.parent.mkdir(parents=True, exist_ok=True)
            connection = sqlite3.connect(
                str(self.path),
                timeout=5.0,
                isolation_level=None,  # autocommit; writes use explicit BEGIN IMMEDIATE
                check_same_thread=False,  # the instance lock serializes access
            )
            # WAL lets readers proceed during a writer's transaction; NORMAL
            # sync is crash-safe for WAL (a torn tail rolls back to the last
            # commit, which the read path tolerates anyway).
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute(_CREATE_TABLE)
            try:
                connection.execute(_ADD_ACCESSED)
                connection.execute(_BACKFILL_ACCESSED)
            except sqlite3.OperationalError:
                pass  # column already present (store created at this version)
            self._connection = connection
        except (sqlite3.Error, OSError):
            # A pre-corrupted or unwritable store: degrade to a pure
            # pass-through (every eligible lookup is a counted miss).
            self.stats.errors += 1
            self._connection = None
            self._dead = True

    def close(self) -> None:
        """Close the underlying connection (further ops degrade to misses)."""
        with self._lock:
            if self._connection is not None:
                try:
                    self._connection.close()
                except sqlite3.Error:  # pragma: no cover - defensive
                    pass
                self._connection = None
            self._dead = True

    def __enter__(self) -> "PersistentCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Eligibility: which in-memory entries may live on disk
    # ------------------------------------------------------------------ #
    @staticmethod
    def _digest(layer: str, key: Hashable) -> str | None:
        """The row digest of an eligible ``(layer, key)``, else ``None``.

        Only session decision memos persist (``("session", …)`` keys in the
        ``results`` layer).  ``plans`` and ``indexes`` never do: interned
        plans and targets are keyed by a process-local term-dictionary
        serial.  A key without a canonical serialization stays in memory.
        """
        if layer != "results" or not (
            isinstance(key, tuple) and len(key) == 2 and key[0] == "session"
        ):
            return None
        try:
            return persistent_digest(key)
        except UnpersistableKeyError:
            return None

    # ------------------------------------------------------------------ #
    # The EngineCache adapter protocol: load / store
    # ------------------------------------------------------------------ #
    def load(self, layer: str, key: Hashable) -> Any:
        """The stored value for ``(layer, key)``, or :data:`MISS`.

        Ineligible keys return :data:`MISS` without counting a lookup (the
        hit rate measures eligible traffic only); any storage-level failure
        counts an error and degrades to a miss.
        """
        digest = self._digest(layer, key)
        if digest is None:
            return MISS
        if self._dead or self._connection is None:
            self.stats.misses += 1
            return MISS
        if not self.breaker.allow():
            self.stats.breaker_skipped += 1
            self.stats.misses += 1
            return MISS
        assert self._connection is not None
        connection: sqlite3.Connection = self._connection

        def _query() -> Any:
            with self._lock:
                self._inject("persist.load")
                return connection.execute(
                    "SELECT value FROM entries "
                    "WHERE layer = ? AND key = ? AND backend = ? AND limits = ? AND schema = ?",
                    (layer, digest, self.backend, self.limits_fingerprint, self.schema_version),
                ).fetchone()

        try:
            row = self._with_retries(_query)
        except sqlite3.Error:
            self.stats.errors += 1
            self.stats.misses += 1
            self.breaker.record_failure()
            return MISS
        self.breaker.record_success()
        if row is None:
            self.stats.misses += 1
            return MISS
        try:
            value = pickle.loads(row[0])
        except Exception:  # noqa: BLE001 - any torn/garbage blob is a miss
            self.stats.errors += 1
            self.stats.misses += 1
            return MISS
        # Best-effort recency stamp for the LRU/age eviction policies; a
        # failed stamp (lock contention) must never cost the hit.
        try:
            with self._lock:
                self._connection.execute(
                    "UPDATE entries SET accessed = ? "
                    "WHERE layer = ? AND key = ? AND backend = ? AND limits = ? AND schema = ?",
                    (
                        time.time(),
                        layer,
                        digest,
                        self.backend,
                        self.limits_fingerprint,
                        self.schema_version,
                    ),
                )
        except sqlite3.Error:
            pass
        self.stats.hits += 1
        return value

    def store(self, layer: str, key: Hashable, value: Any) -> bool:
        """Write one freshly built entry through to disk (best effort).

        Returns ``True`` when a row was written.  Ineligible keys are
        ignored silently; an unpicklable value counts as ``skipped``; any
        storage failure (lock contention, disk trouble) counts an error —
        the in-memory entry stays authoritative either way.
        """
        digest = self._digest(layer, key)
        if digest is None:
            return False
        if self._dead or self._connection is None:
            return False
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 - unpicklable values stay in memory
            self.stats.skipped += 1
            return False
        if not self.breaker.allow():
            self.stats.breaker_skipped += 1
            return False
        assert self._connection is not None
        connection: sqlite3.Connection = self._connection

        def _write() -> None:
            # Re-checked per attempt, so a count-limited injected "busy"
            # exhausts itself and a retry then succeeds.
            payload = blob
            rule = _fault_check("persist.store")
            if rule is not None:
                if rule.action == "latency":
                    time.sleep(rule.delay_ms / 1000.0)
                elif rule.action == "torn-write":
                    payload = payload[: max(1, len(payload) // 2)]
                elif rule.action == "busy":
                    raise sqlite3.OperationalError(
                        "database is locked (injected at persist.store)"
                    )
                else:
                    raise sqlite3.OperationalError(
                        "disk I/O error (injected at persist.store)"
                    )
            with self._lock:
                connection.execute("BEGIN IMMEDIATE")
                try:
                    connection.execute(
                        "INSERT OR REPLACE INTO entries "
                        "(layer, key, backend, limits, schema, value, created) "
                        "VALUES (?, ?, ?, ?, ?, ?, ?)",
                        (
                            layer,
                            digest,
                            self.backend,
                            self.limits_fingerprint,
                            self.schema_version,
                            payload,
                            time.time(),
                        ),
                    )
                    connection.execute("COMMIT")
                except BaseException:
                    connection.execute("ROLLBACK")
                    raise

        try:
            self._with_retries(_write)
        except sqlite3.Error:
            self.stats.errors += 1
            self.breaker.record_failure()
            return False
        self.breaker.record_success()
        self.stats.stores += 1
        return True

    # ------------------------------------------------------------------ #
    # Invalidation and maintenance
    # ------------------------------------------------------------------ #
    def clear(self) -> int:
        """Drop every row in the store; returns the number dropped."""
        return self._prune("1", ())

    def _prune(self, condition: str, parameters: tuple[Any, ...]) -> int:
        """Delete rows matching *condition*; returns the number dropped.

        Pruning is maintenance, not correctness: a pruned entry simply
        misses on its next lookup and is recomputed, so any failure here
        degrades to dropping nothing.
        """
        if self._dead or self._connection is None:
            return 0
        try:
            with self._lock:
                self._connection.execute("BEGIN IMMEDIATE")
                try:
                    cursor = self._connection.execute(
                        f"DELETE FROM entries WHERE {condition}", parameters
                    )
                    self._connection.execute("COMMIT")
                except BaseException:
                    self._connection.execute("ROLLBACK")
                    raise
        except sqlite3.Error:
            self.stats.errors += 1
            return 0
        dropped = cursor.rowcount if cursor.rowcount is not None and cursor.rowcount > 0 else 0
        self.stats.invalidated += dropped
        return dropped

    def prune_age(self, days: float) -> int:
        """Drop entries not accessed (nor created) within *days* days."""
        cutoff = time.time() - days * 86400.0
        return self._prune("MAX(accessed, created) < ?", (cutoff,))

    def prune_lru(self, keep: int) -> int:
        """Keep only the *keep* most recently accessed entries."""
        if keep < 0:
            keep = 0
        return self._prune(
            "rowid NOT IN (SELECT rowid FROM entries "
            "ORDER BY MAX(accessed, created) DESC, rowid DESC LIMIT ?)",
            (keep,),
        )

    def vacuum(self) -> bool:
        """Checkpoint the WAL and compact the store file."""
        if self._dead or self._connection is None:
            return False
        try:
            with self._lock:
                self._connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
                self._connection.execute("VACUUM")
        except sqlite3.Error:
            self.stats.errors += 1
            return False
        return True

    def info(self) -> dict[str, Any]:
        """A maintenance snapshot: per-layer row counts, size, versions."""
        info: dict[str, Any] = {
            "path": str(self.path),
            "schema_version": self.schema_version,
            "backend": self.backend,
            "entries": 0,
            "layers": {},
            "schemas": [],
            "backends": [],
            "file_bytes": self.path.stat().st_size if self.path.exists() else 0,
            "stats": self.stats.describe(),
            "breaker": {
                "state": self.breaker.state,
                "opens": self.breaker.opens,
                "half_opens": self.breaker.half_opens,
                "closes": self.breaker.closes,
                "transitions": list(self.breaker.transitions),
            },
        }
        if self._dead or self._connection is None:
            info["status"] = "unavailable"
            return info
        try:
            with self._lock:
                layers = self._connection.execute(
                    "SELECT layer, COUNT(*) FROM entries GROUP BY layer ORDER BY layer"
                ).fetchall()
                schemas = self._connection.execute(
                    "SELECT DISTINCT schema FROM entries ORDER BY schema"
                ).fetchall()
                backends = self._connection.execute(
                    "SELECT DISTINCT backend FROM entries ORDER BY backend"
                ).fetchall()
        except sqlite3.Error:
            self.stats.errors += 1
            info["status"] = "error"
            return info
        info["layers"] = {layer: count for layer, count in layers}
        info["entries"] = sum(count for _, count in layers)
        info["schemas"] = [schema for (schema,) in schemas]
        info["backends"] = [name for (name,) in backends]
        info["status"] = "ok"
        return info

    def describe(self) -> str:
        """One stats line, matching the cache layers' format.

        The breaker summary is appended only once a transition has
        happened, so healthy-path output stays byte-stable.
        """
        line = f"{'persist':<8} {self.stats.describe()}"
        if self.breaker.transitions:
            line += f"; {self.breaker.describe()}"
        return line

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PersistentCache({str(self.path)!r}, backend={self.backend!r})"
