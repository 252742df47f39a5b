"""The compiled homomorphism engine: plan / execute with caching and batching.

Every decision path of this reproduction — bag evaluation (Equation 2),
Chandra–Merlin set containment, the MPI encoding of Definition 3.3, and the
three bag-containment strategies — bottoms out in the same combinatorial
question: enumerate (or count, or merely detect) the homomorphisms of a set
of source atoms into a set of target atoms under pre-fixed bindings.  This
package turns that question into a compiled subsystem:

1. **Intern** (:mod:`repro.engine.interning`): terms become dense integer
   ids and a target becomes columnar per-relation buckets with packed-key
   signature indexes built on first use.
2. **Plan and execute** (:mod:`repro.engine.interned`): a target-free plan
   template — a greedy fail-first join order over the target's bucket
   sizes — is compiled once per query shape, keyed on a canonical form of
   the source that ignores variable names, and bound to each target as an
   :class:`InternedPlan`; an iterative, trail-based executor runs it in one
   of three modes, ``iterate``, ``count`` or ``exists``, so decision
   callers never pay for enumeration.
3. **Cache** (:mod:`repro.engine.cache`): interned targets (each with the
   plans bound to it) and plan templates are memoised in an
   :class:`EngineCache` with LRU bounds, hit/miss statistics and explicit
   invalidation.  The engine caches compiled artefacts only, never
   answers; the cache's results layer holds the session's whole-request
   memos.
4. **Query level** (:mod:`repro.engine.batch`):
   :class:`ContainmentMappingBatcher` enumerates ``CM(q2, q1(t))`` per
   probe tuple or per body factor, and :class:`BagBatchEvaluator` is the
   one implementation of Equation 2, evaluating many bags from one
   homomorphism enumeration.  Atom-level callers use the active backend's
   ``iterate`` / ``count`` / ``exists`` (:func:`get_default_backend`).

Two backends implement the common interface: ``naive`` (the original
recursive backtracker, kept as the executable specification and the oracle
the tests compare against) and ``interned`` (the production engine above,
and the default).  A :class:`repro.session.Session` selects the backend
for everything run while it is active (``Session(backend="naive")``);
callers may also pass an instance per call via the ``backend=`` keyword.
The CLI exposes the session's choice as ``--engine-backend`` and prints the
session cache's statistics under ``--engine-stats``.
"""

from types import MappingProxyType
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.engine.backends import (
        BACKEND_NAMES,
        Backend,
        InternedBackend,
        NaiveBackend,
        backend_names,
        create_backend,
        default_cache,
        get_backend,
        get_default_backend,
    )
    from repro.engine.batch import BagBatchEvaluator, ContainmentMappingBatcher
    from repro.engine.cache import (
        CacheStats,
        EngineCache,
        describe_snapshot,
        merge_snapshots,
        snapshot_delta,
    )
    from repro.engine.fingerprints import (
        UnpersistableKeyError,
        atoms_fingerprint,
        persistent_digest,
    )
    from repro.engine.interned import (
        ExecutionStats,
        InternedPlan,
        compile_interned_plan,
        interned_count,
        interned_exists,
        interned_iterate,
    )
    from repro.engine.interning import InternedTarget, TermDictionary
    from repro.engine.persist import MISS, PersistentCache, PersistStats, SCHEMA_VERSION

#: Each exported name and the module that defines it (``repro._lazy``).
_EXPORTS = MappingProxyType(
    {
        "BACKEND_NAMES": "repro.engine.backends",
        "Backend": "repro.engine.backends",
        "BagBatchEvaluator": "repro.engine.batch",
        "CacheStats": "repro.engine.cache",
        "ContainmentMappingBatcher": "repro.engine.batch",
        "EngineCache": "repro.engine.cache",
        "ExecutionStats": "repro.engine.interned",
        "InternedBackend": "repro.engine.backends",
        "InternedPlan": "repro.engine.interned",
        "InternedTarget": "repro.engine.interning",
        "MISS": "repro.engine.persist",
        "NaiveBackend": "repro.engine.backends",
        "PersistStats": "repro.engine.persist",
        "PersistentCache": "repro.engine.persist",
        "SCHEMA_VERSION": "repro.engine.persist",
        "TermDictionary": "repro.engine.interning",
        "UnpersistableKeyError": "repro.engine.fingerprints",
        "atoms_fingerprint": "repro.engine.fingerprints",
        "backend_names": "repro.engine.backends",
        "compile_interned_plan": "repro.engine.interned",
        "create_backend": "repro.engine.backends",
        "default_cache": "repro.engine.backends",
        "describe_snapshot": "repro.engine.cache",
        "get_backend": "repro.engine.backends",
        "get_default_backend": "repro.engine.backends",
        "interned_count": "repro.engine.interned",
        "interned_exists": "repro.engine.interned",
        "interned_iterate": "repro.engine.interned",
        "merge_snapshots": "repro.engine.cache",
        "persistent_digest": "repro.engine.fingerprints",
        "snapshot_delta": "repro.engine.cache",
    }
)

# Type checkers see the names through the `TYPE_CHECKING` imports above.
if not TYPE_CHECKING:
    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

# `persistent_digest` is reachable here but stays out of the star import.
__all__ = [name for name in _EXPORTS if name != "persistent_digest"]
