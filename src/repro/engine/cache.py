"""The memoising engine cache: compiled plans, shared targets, request memos.

Compilation is cheap but not free (join ordering plus index bucketing is
linear in the source and target sizes), and the library's hot paths compile
the *same* triples over and over: every probe tuple of a containment check
re-targets the same containing query, every candidate bag of a refuter
re-evaluates the same grounded containee, every minimisation round re-folds
the same body.  :class:`EngineCache` memoises three layers:

* **indexes**: interned target images, keyed by the instance fingerprint —
  shared by every query probing the same instance;
* **plans**: target-free plan templates, keyed by a canonical form of the
  source that ignores variable names (see
  :func:`repro.engine.interned.canonical_source`) — shared by every search
  of the same shape, renamed requests included.  A plan bound to one
  target is memoised on that target's index entry instead, and a hit
  there counts as a plan-layer hit too, so plan hits mean "nothing was
  compiled";
* **results**: whole-request memos, written by the owning
  :class:`~repro.session.Session` under ``("session", …)`` keys.  The
  engine itself caches compiled artefacts only, never answers: a repeated
  ``count`` or ``exists`` reuses its plan and runs it again.

All three layers keep LRU order and expose hit/miss/eviction statistics;
:meth:`EngineCache.invalidate` drops a given target's index entry, with
the plans bound to it (or everything), which is the hook
instance-mutating callers use.  Templates name no target and request
memos are keyed by requests, so a targeted invalidation leaves both in
place.

A cache can additionally be backed by a persistent tier
(:meth:`EngineCache.attach_persistent`): an in-memory result-layer miss
then falls through to the disk store before computing, and freshly
computed eligible entries are written back — see :mod:`repro.engine.persist`
for the key discipline and the corruption-tolerance guarantees.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping

from repro.engine.fingerprints import atoms_fingerprint
from repro.engine.persist import MISS, PersistentCache
from repro.relational.atoms import Atom

__all__ = ["CacheStats", "EngineCache", "describe_snapshot", "merge_snapshots", "snapshot_delta"]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache layer."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def describe(self) -> str:
        return f"{self.hits} hits / {self.misses} misses ({self.hit_rate:.0%}), {self.evictions} evicted"


def snapshot_delta(
    after: Mapping[str, tuple[int, int, int]], before: Mapping[str, tuple[int, int, int]]
) -> dict[str, tuple[int, int, int]]:
    """What one stretch of work did: ``after − before``, per cache layer.

    Both arguments are :meth:`EngineCache.snapshot` dictionaries; layers
    missing from *before* count from zero.
    """
    return {
        layer: tuple(value - before.get(layer, (0, 0, 0))[index] for index, value in enumerate(counts))
        for layer, counts in after.items()
    }


def merge_snapshots(
    snapshots: Iterable[Mapping[str, tuple[int, int, int]]]
) -> dict[str, tuple[int, int, int]]:
    """Sum per-layer ``(hits, misses, evictions)`` across many snapshots.

    :func:`repro.parallel.merged_cache_stats` folds a batch's per-outcome
    deltas through it — outcomes computed in any worker — into the
    fleet-wide totals a fuzz campaign report presents.
    """
    totals: dict[str, list[int]] = {}
    for snapshot in snapshots:
        for layer, counts in snapshot.items():
            bucket = totals.setdefault(layer, [0] * len(counts))
            for index, value in enumerate(counts):
                bucket[index] += value
    return {layer: tuple(bucket) for layer, bucket in totals.items()}


def describe_snapshot(snapshot: Mapping[str, tuple[int, int, int]]) -> str:
    """Render a snapshot (typically a merged delta) as the usual stats lines."""
    lines = []
    for layer, (hits, misses, evictions) in snapshot.items():
        lines.append(f"{layer:<8} {CacheStats(hits=hits, misses=misses, evictions=evictions).describe()}")
    return "\n".join(lines)


class _LruLayer:
    """One bounded LRU mapping with its own statistics.

    When a :class:`~repro.engine.persist.PersistentCache` is attached, an
    in-memory miss consults the disk store before building (a persistent
    hit still counts as an in-memory miss — the layer statistics keep
    measuring this process's working set), and a freshly built entry is
    written through.  Eligibility and failure tolerance live entirely in
    the persistent tier; the layer never sees an exception from it.
    """

    __slots__ = ("name", "max_entries", "stats", "persistent", "_entries")

    def __init__(self, name: str, max_entries: int) -> None:
        self.name = name
        self.max_entries = max_entries
        self.stats = CacheStats()
        self.persistent: PersistentCache | None = None
        self._entries: OrderedDict[Hashable, object] = OrderedDict()

    def get_or_build(self, key: Hashable, build: Callable[[], object]) -> object:
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.stats.misses += 1
        if self.persistent is not None:
            loaded = self.persistent.load(self.name, key)
            if loaded is not MISS:
                self._entries[key] = loaded
                if len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
                return loaded
        entry = build()
        self._entries[key] = entry
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        if self.persistent is not None:
            self.persistent.store(self.name, key, entry)
        return entry

    def drop(self, predicate: Callable[[Hashable], bool]) -> int:
        doomed = [key for key in self._entries if predicate(key)]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class EngineCache:
    """Memoisation for compiled plans, target indexes and request results."""

    #: Bound on remembered absorb tokens (see :meth:`absorb_delta`): far
    #: beyond any real campaign's chunk count, small enough to never matter.
    _MAX_ABSORB_TOKENS = 65536

    def __init__(self, max_plans: int = 512, max_indexes: int = 128, max_results: int = 4096) -> None:
        self._indexes = _LruLayer("indexes", max_indexes)
        self._plans = _LruLayer("plans", max_plans)
        self._results = _LruLayer("results", max_results)
        self._persistent: PersistentCache | None = None
        self._absorbed_tokens: OrderedDict[Hashable, None] = OrderedDict()

    # ------------------------------------------------------------------ #
    # The persistent tier
    # ------------------------------------------------------------------ #
    def attach_persistent(self, persistent: PersistentCache | None) -> None:
        """Back (or stop backing) this cache with a persistent tier.

        Only the result layer consults the store: interned targets (and
        the plans bound to them) are keyed by a process-local
        term-dictionary serial, and plan templates are cheap per-process
        rebuilds, so neither persists.  Passing ``None`` detaches.
        """
        self._persistent = persistent
        self._results.persistent = persistent

    @property
    def persistent(self) -> PersistentCache | None:
        """The attached persistent tier, if any."""
        return self._persistent

    @property
    def capacities(self) -> tuple[int, int, int]:
        """``(max_plans, max_indexes, max_results)`` — the constructor arguments.

        This is the cache's configuration fingerprint: a worker process can
        build a behaviourally equivalent cache from it without shipping any
        entries (see :class:`repro.session.SessionSpec`).
        """
        return (
            self._plans.max_entries,
            self._indexes.max_entries,
            self._results.max_entries,
        )

    # ------------------------------------------------------------------ #
    # Lookup / build
    # ------------------------------------------------------------------ #
    def result(self, key: Hashable, compute: Callable[[], object]) -> object:
        """Memoise a whole-request result (a session decision memo) under *key*."""
        return self._results.get_or_build(key, compute)

    def index_entry(self, key: Hashable, build: Callable[[], object]) -> object:
        """Memoise a per-target artefact (an interned target) in the index layer.

        Tuple keys must put the target fingerprint first — that is what
        :meth:`invalidate` matches on.
        """
        return self._indexes.get_or_build(key, build)

    def plan_entry(self, key: Hashable, build: Callable[[], object]) -> object:
        """Memoise a plan template in the plan layer, under its canonical key."""
        return self._plans.get_or_build(key, build)

    def count_plan_hit(self) -> None:
        """Count a plan served without the plan layer (a plan bound earlier)."""
        self._plans.stats.hits += 1

    # ------------------------------------------------------------------ #
    # Invalidation / introspection
    # ------------------------------------------------------------------ #
    def invalidate(self, target_atoms: Iterable[Atom] | None = None) -> int:
        """Drop the index entry of *target_atoms* (or every entry, everywhere).

        A targeted invalidation drops the target's interned image, and with
        it the plans bound to it; templates and request memos stay, in
        memory and in an attached store.  Without a target every layer and
        the attached store are cleared.  Returns the number of entries
        dropped.  The engine's value objects are immutable, so invalidation
        is never needed for correctness; it exists for long-running
        services that want to bound memory ahead of the LRU or that recycle
        instance identities.
        """
        if target_atoms is None:
            dropped = len(self._indexes) + len(self._plans) + len(self._results)
            self.clear()
            if self._persistent is not None:
                dropped += self._persistent.clear()
            return dropped
        target_key = atoms_fingerprint(target_atoms)
        return self._indexes.drop(
            lambda key: key == target_key
            or (isinstance(key, tuple) and len(key) > 0 and key[0] == target_key)
        )

    def clear(self) -> None:
        """Drop every cached entry (statistics are preserved)."""
        self._indexes.clear()
        self._plans.clear()
        self._results.clear()

    def absorb_delta(
        self, delta: Mapping[str, tuple[int, int, int]], token: Hashable
    ) -> bool:
        """Fold another cache's ``(hits, misses, evictions)`` delta into the stats.

        This is the merge hook of the parallel batch layer: worker processes
        run their own caches and ship back :func:`snapshot_delta` dictionaries,
        and the parent folds them in so the session's cache statistics reflect
        the whole fleet's work.  Only the counters move — entries stay where
        they were built (worker caches die with the workers).

        Absorption is idempotent per *token*: a chunk retried after a worker
        failure (or a delta accidentally replayed by a caller) is folded in
        once — repeats return ``False`` without touching the counters.
        Returns whether the delta was absorbed.
        """
        if token in self._absorbed_tokens:
            return False
        self._absorbed_tokens[token] = None
        if len(self._absorbed_tokens) > self._MAX_ABSORB_TOKENS:
            self._absorbed_tokens.popitem(last=False)
        by_name = {layer.name: layer for layer in (self._plans, self._indexes, self._results)}
        for name, (hits, misses, evictions) in delta.items():
            layer = by_name.get(name)
            if layer is None:
                continue
            layer.stats.hits += hits
            layer.stats.misses += misses
            layer.stats.evictions += evictions
        return True

    @property
    def plan_stats(self) -> CacheStats:
        return self._plans.stats

    @property
    def index_stats(self) -> CacheStats:
        return self._indexes.stats

    @property
    def result_stats(self) -> CacheStats:
        return self._results.stats

    def snapshot(self) -> dict[str, tuple[int, int, int]]:
        """Current ``(hits, misses, evictions)`` per layer, for delta reports."""
        return {
            layer.name: (layer.stats.hits, layer.stats.misses, layer.stats.evictions)
            for layer in (self._plans, self._indexes, self._results)
        }

    def describe(self, since: Mapping[str, tuple[int, int, int]] | None = None) -> str:
        """A compact multi-line stats report (used by ``--engine-stats``).

        With *since* (a :meth:`snapshot` taken earlier) the hit/miss/eviction
        counters are reported as deltas, so callers can show what one command
        did rather than the process-lifetime totals of the shared cache.
        """
        lines = []
        for layer in (self._plans, self._indexes, self._results):
            hits, misses, evictions = layer.stats.hits, layer.stats.misses, layer.stats.evictions
            if since is not None:
                base = since.get(layer.name, (0, 0, 0))
                hits, misses, evictions = hits - base[0], misses - base[1], evictions - base[2]
            window = CacheStats(hits=hits, misses=misses, evictions=evictions)
            lines.append(f"{layer.name:<8} {len(layer)} entries, {window.describe()}")
        if self._persistent is not None:
            lines.append(self._persistent.describe())
        return "\n".join(lines)
