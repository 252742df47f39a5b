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
2. **Plan and execute** (:mod:`repro.engine.interned`): a ``(source,
   target, fixed)`` triple is compiled once into an :class:`InternedPlan` —
   a join order picked greedily by the selectivity of the target's built
   signature indexes —
   and an iterative, trail-based executor runs it in one of three modes,
   ``iterate``, ``count`` or ``exists``, so decision callers never pay for
   enumeration.
3. **Cache** (:mod:`repro.engine.cache`): interned targets, plans and
   scalar results are memoised in an :class:`EngineCache` with LRU bounds,
   hit/miss statistics and explicit invalidation.
4. **Batch** (:mod:`repro.engine.batch`): :func:`count_many`,
   :func:`containment_mappings_many` and :func:`evaluate_bag_many` serve
   whole probe-tuple or candidate-bag sweeps (for bags, from one
   homomorphism enumeration).

Two backends implement the common interface: ``naive`` (the original
recursive backtracker, kept as the executable specification and the oracle
the tests compare against) and ``interned`` (the production engine above,
and the default).  A :class:`repro.session.Session` selects the backend
for everything run while it is active (``Session(backend="naive")``);
callers may also pass an instance per call via the ``backend=`` keyword.
The CLI exposes the session's choice as ``--engine-backend`` and prints the
session cache's statistics under ``--engine-stats``.
"""

from repro.engine.api import count_homomorphisms, has_homomorphism, iterate_homomorphisms
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
from repro.engine.batch import (
    BagBatchEvaluator,
    ContainmentMappingBatcher,
    containment_mappings_many,
    count_many,
    evaluate_bag_many,
)
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
    query_fingerprint,
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

__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "BagBatchEvaluator",
    "CacheStats",
    "ContainmentMappingBatcher",
    "EngineCache",
    "ExecutionStats",
    "InternedBackend",
    "InternedPlan",
    "InternedTarget",
    "MISS",
    "NaiveBackend",
    "PersistStats",
    "PersistentCache",
    "SCHEMA_VERSION",
    "TermDictionary",
    "UnpersistableKeyError",
    "atoms_fingerprint",
    "backend_names",
    "compile_interned_plan",
    "containment_mappings_many",
    "count_homomorphisms",
    "count_many",
    "create_backend",
    "default_cache",
    "describe_snapshot",
    "evaluate_bag_many",
    "get_backend",
    "get_default_backend",
    "has_homomorphism",
    "interned_count",
    "interned_exists",
    "interned_iterate",
    "iterate_homomorphisms",
    "merge_snapshots",
    "query_fingerprint",
    "snapshot_delta",
]
