"""Homomorphism backends: the naive reference and the interned engine.

A *backend* answers the three homomorphism questions over raw atom sets —
enumerate (``iterate``), ``count`` and ``exists`` — behind one small
interface, so every higher layer (evaluation, containment, encoding,
baselines, CLI) can switch implementations without code changes:

:class:`NaiveBackend`
    The original recursive backtracker, kept verbatim as the executable
    specification.  It rebuilds its relation index on every call and re-runs
    the candidate count over all remaining atoms at every search node; it is
    the semantics oracle the property tests compare against and the slow
    side of the A/B benchmarks.

:class:`InternedBackend`
    The production engine and the default: compiles an integer
    :class:`~repro.engine.interned.InternedPlan` (memoised through an
    :class:`~repro.engine.cache.EngineCache`) and runs the iterative
    executor.  ``count`` and ``exists`` results are additionally memoised,
    keyed by the full execution fingerprint.

The module also owns the backend *registry* — a name → factory mapping that
third-party backends join through :func:`register_backend` — and the
**context-local** default selection (`get_backend`, `set_default_backend`,
`use_backend`), which the CLI exposes as ``--engine-backend``.  Selection is
backed by :mod:`contextvars`, so two threads (or two asyncio tasks) can run
different backends concurrently without leaking state into each other; a
:class:`repro.session.Session` additionally installs a *provider* so that
name lookups made while the session is active resolve to the session's own
backend instances (and therefore its own cache).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, Iterator, Mapping

from repro.analysis import hooks as _verify_hooks
from repro.engine.cache import EngineCache
from repro.engine.fingerprints import atoms_fingerprint
from repro.engine.interned import (
    ExecutionStats,
    InternedPlan,
    compile_interned_plan,
    interned_count,
    interned_exists,
    interned_iterate,
)
from repro.engine.interning import InternedTarget, TermDictionary
from repro.exceptions import ReproError
from repro.relational.atoms import Atom
from repro.relational.substitutions import Substitution
from repro.relational.terms import Term, Variable

__all__ = [
    "Backend",
    "NaiveBackend",
    "InternedBackend",
    "BACKEND_NAMES",
    "BackendFactory",
    "backend_names",
    "create_backend",
    "register_backend",
    "get_backend",
    "get_default_backend",
    "set_default_backend",
    "use_backend",
    "default_cache",
]


class Backend:
    """Interface shared by all homomorphism backends."""

    name: str = "abstract"

    def iterate(
        self,
        source_atoms: Iterable[Atom],
        target_atoms: Iterable[Atom],
        fixed: Mapping[Variable, Term] | None = None,
    ) -> Iterator[Substitution]:
        raise NotImplementedError

    def count(
        self,
        source_atoms: Iterable[Atom],
        target_atoms: Iterable[Atom],
        fixed: Mapping[Variable, Term] | None = None,
    ) -> int:
        return sum(1 for _ in self.iterate(source_atoms, target_atoms, fixed))

    def exists(
        self,
        source_atoms: Iterable[Atom],
        target_atoms: Iterable[Atom],
        fixed: Mapping[Variable, Term] | None = None,
    ) -> bool:
        return next(self.iterate(source_atoms, target_atoms, fixed), None) is not None


def _scalar_result_key(
    backend_name: str,
    mode: str,
    source: Iterable[Atom],
    target: Iterable[Atom],
    fixed: Mapping[Variable, Term] | None,
) -> tuple:
    """The result-layer memo key for a ``count``/``exists`` execution.

    One shared layout for every backend: element 1 **must** be the target
    fingerprint — :meth:`EngineCache.invalidate`'s result-layer drop
    predicate matches on ``key[1]``.  The backend name is part of the key
    so that two backends sharing one cache (a session's) never serve each
    other's memoised results — the differential oracle's cross-backend
    comparisons must compare independent computations, not one computation
    twice.
    """
    return (
        "count-exists",
        atoms_fingerprint(target),
        atoms_fingerprint(source),
        frozenset((fixed or {}).items()),
        mode,
        backend_name,
    )


class NaiveBackend(Backend):
    """The recursive reference implementation (pre-engine semantics).

    Kept byte-for-byte faithful to the original
    ``repro.evaluation.homomorphisms.homomorphisms`` so that the interned
    engine always has a trusted oracle: the target is re-indexed per call and
    the next atom is chosen greedily per node by re-counting candidates.
    """

    name = "naive"

    @staticmethod
    def _match_atom(
        atom: Atom, target: Atom, bindings: dict[Variable, Term]
    ) -> dict[Variable, Term] | None:
        if atom.relation != target.relation or atom.arity != target.arity:
            return None
        extended = dict(bindings)
        for source_term, target_term in zip(atom.terms, target.terms):
            if isinstance(source_term, Variable):
                bound = extended.get(source_term)
                if bound is None:
                    extended[source_term] = target_term
                elif bound != target_term:
                    return None
            elif source_term != target_term:
                return None
        return extended

    def iterate(
        self,
        source_atoms: Iterable[Atom],
        target_atoms: Iterable[Atom],
        fixed: Mapping[Variable, Term] | None = None,
    ) -> Iterator[Substitution]:
        source = list(dict.fromkeys(source_atoms))
        target = list(dict.fromkeys(target_atoms))

        by_relation: dict[str, list[Atom]] = {}
        for atom in target:
            by_relation.setdefault(atom.relation, []).append(atom)

        initial: dict[Variable, Term] = dict(fixed or {})

        source_variables: set[Variable] = set()
        for atom in source:
            source_variables.update(atom.variables())

        match_atom = self._match_atom

        def candidate_count(atom: Atom, bindings: dict[Variable, Term]) -> int:
            count = 0
            for candidate in by_relation.get(atom.relation, ()):  # pragma: no branch
                if match_atom(atom, candidate, bindings) is not None:
                    count += 1
            return count

        def search(
            remaining: list[Atom], bindings: dict[Variable, Term]
        ) -> Iterator[dict[Variable, Term]]:
            if not remaining:
                yield bindings
                return
            # Fail-first: pick the atom with the fewest candidate images.
            best_index = min(
                range(len(remaining)), key=lambda index: candidate_count(remaining[index], bindings)
            )
            atom = remaining[best_index]
            rest = remaining[:best_index] + remaining[best_index + 1 :]
            for candidate in by_relation.get(atom.relation, ()):  # pragma: no branch
                extended = match_atom(atom, candidate, bindings)
                if extended is not None:
                    yield from search(rest, extended)

        for solution in search(source, initial):
            complete = dict(solution)
            for variable in source_variables:
                complete.setdefault(variable, variable)
            yield Substitution(complete)


class InternedBackend(Backend):
    """The integer data plane: interned terms, columnar rows, packed keys.

    Everything the inner loop touches is an ``int``: constants and
    variables are interned to dense ids through a per-backend
    :class:`~repro.engine.interning.TermDictionary`, targets are stored as
    columnar per-relation buckets of tuple-of-int rows, signature indexes
    key on packed integer keys, and plan steps address a flat slot-binding
    list instead of a variable dictionary.  Join orders are chosen by the
    *observed* per-signature selectivity accumulated in ``selectivity``
    (see :func:`~repro.engine.interned.compile_interned_plan`).

    Compiled artefacts live in the shared :class:`EngineCache` — interned
    targets in the index layer, interned plans in the plan layer, scalar
    results in the result layer — tagged with the dictionary's serial so an
    entry can never outlive the id space it was compiled against.
    """

    name = "interned"

    def __init__(self, cache: EngineCache | None = None, collect_stats: bool = True) -> None:
        self.cache = cache if cache is not None else EngineCache()
        self.stats = ExecutionStats() if collect_stats else None
        self.dictionary = TermDictionary()
        #: Per-signature ``[probes, candidates returned]`` counters, keyed by
        #: ``(relation, arity, signature)`` — the statistics the planner's
        #: cost ordering reads and ``--engine-stats`` prints.
        self.selectivity: dict[tuple[str, int, tuple[int, ...]], list[int]] = {}
        #: Identity-keyed plan memo: callers that re-execute with the *same*
        #: atom containers (cached ``body_atoms()`` tuples, ``facts``
        #: frozensets) skip fingerprinting entirely.  Values hold strong
        #: references to the keyed containers, so an id can never be
        #: recycled while its entry is alive; cleared wholesale when full.
        self._plan_memo: dict[tuple, tuple[object, object, InternedPlan]] = {}

    # ------------------------------------------------------------------ #
    # Compiled artefact access
    # ------------------------------------------------------------------ #
    def target(self, target_atoms: Iterable[Atom]) -> InternedTarget:
        """The (cached) interned image of a target atom set."""
        target = tuple(target_atoms)
        key = (atoms_fingerprint(target), "interned", self.dictionary.serial)
        return self.cache.index_entry(  # type: ignore[return-value]
            key, lambda: InternedTarget(self.dictionary, target)
        )

    #: Identity-memo bound: cleared wholesale beyond this (entries rebuild
    #: cheaply from the fingerprint-keyed plan layer underneath).
    _PLAN_MEMO_LIMIT = 1024

    def plan(
        self,
        source_atoms: Iterable[Atom],
        target_atoms: Iterable[Atom],
        fixed: Mapping[Variable, Term] | Iterable[Variable] | None = None,
    ) -> InternedPlan:
        """The (cached) cost-ordered integer plan for a ``(source, target, fixed)`` triple.

        Lookup is two-tier: an identity memo keyed on the container ids
        (hit when callers pass stable tuples/frozensets, as the cached
        query/instance accessors do), backed by the shared cache's
        fingerprint-keyed plan layer, which unifies logically equal triples
        arriving under fresh identities.
        """
        fixed_variables = frozenset(fixed or ())
        ident = (id(source_atoms), id(target_atoms), fixed_variables)
        memo = self._plan_memo
        entry = memo.get(ident)
        if entry is not None and entry[0] is source_atoms and entry[1] is target_atoms:
            if _verify_hooks.verification_enabled():
                _verify_hooks.check_plan(
                    entry[2],
                    source_atoms=tuple(entry[0]),
                    fixed_variables=fixed_variables,
                    dictionary=self.dictionary,
                )
            return entry[2]

        source = tuple(source_atoms)
        target = tuple(target_atoms)
        key = (
            atoms_fingerprint(source),
            atoms_fingerprint(target),
            fixed_variables,
            "interned",
            self.dictionary.serial,
        )

        def build() -> InternedPlan:
            return compile_interned_plan(
                self.dictionary, self.target(target), source, fixed_variables, self.selectivity
            )

        plan = self.cache.plan_entry(key, build)  # type: ignore[assignment]
        if len(memo) >= self._PLAN_MEMO_LIMIT:
            memo.clear()
        memo[ident] = (source_atoms, target_atoms, plan)  # type: ignore[arg-type]
        if _verify_hooks.verification_enabled():
            _verify_hooks.check_plan(
                plan,
                source_atoms=source,
                fixed_variables=fixed_variables,
                dictionary=self.dictionary,
            )
        return plan  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Backend interface
    # ------------------------------------------------------------------ #
    def iterate(
        self,
        source_atoms: Iterable[Atom],
        target_atoms: Iterable[Atom],
        fixed: Mapping[Variable, Term] | None = None,
    ) -> Iterator[Substitution]:
        plan = self.plan(source_atoms, target_atoms, fixed)
        return interned_iterate(plan, self.dictionary, fixed, stats=self.stats)

    def count(
        self,
        source_atoms: Iterable[Atom],
        target_atoms: Iterable[Atom],
        fixed: Mapping[Variable, Term] | None = None,
    ) -> int:
        source = tuple(source_atoms)
        target = tuple(target_atoms)
        key = self._result_key("count", source, target, fixed)
        return self.cache.result(  # type: ignore[return-value]
            key,
            lambda: interned_count(
                self.plan(source, target, fixed), self.dictionary, fixed, stats=self.stats
            ),
        )

    def exists(
        self,
        source_atoms: Iterable[Atom],
        target_atoms: Iterable[Atom],
        fixed: Mapping[Variable, Term] | None = None,
    ) -> bool:
        source = tuple(source_atoms)
        target = tuple(target_atoms)
        key = self._result_key("exists", source, target, fixed)
        return self.cache.result(  # type: ignore[return-value]
            key,
            lambda: interned_exists(
                self.plan(source, target, fixed), self.dictionary, fixed, stats=self.stats
            ),
        )

    @classmethod
    def _result_key(
        cls,
        mode: str,
        source: tuple[Atom, ...],
        target: tuple[Atom, ...],
        fixed: Mapping[Variable, Term] | None,
    ) -> tuple:
        return _scalar_result_key(cls.name, mode, source, target, fixed)

    # ------------------------------------------------------------------ #
    # Selectivity statistics
    # ------------------------------------------------------------------ #
    def describe_selectivity(self, top: int = 10) -> str:
        """The busiest per-signature selectivity counters, one line each.

        ``avg`` is candidates returned per probe — the observed selectivity
        the planner orders join steps by (lower probes earlier).
        """
        if not self.selectivity:
            return "no signature probes recorded"
        entries = sorted(self.selectivity.items(), key=lambda item: -item[1][0])[:top]
        lines = [f"{'signature':<24} {'probes':>8} {'candidates':>11} {'avg':>7}"]
        for (relation, arity, signature), (probes, candidates) in entries:
            positions = ",".join(str(position) for position in signature) or "-"
            average = candidates / probes if probes else 0.0
            lines.append(
                f"{relation}/{arity}[{positions}]".ljust(24)
                + f" {probes:>8} {candidates:>11} {average:>7.2f}"
            )
        return "\n".join(lines)


#: The canonical built-in backend names, in CLI presentation order.
BACKEND_NAMES = ("naive", "interned")

#: A backend factory: given an (optional) cache to share, build an instance.
#: Factories that need no cache (like the naive reference) ignore the argument.
BackendFactory = Callable[[EngineCache | None], Backend]

_FACTORIES: dict[str, BackendFactory] = {
    "naive": lambda cache: NaiveBackend(),
    "interned": lambda cache: InternedBackend(cache=cache),
}

#: Lazily built process-wide shared instances (the legacy, session-less path).
_SHARED: dict[str, Backend] = {}
_SHARED_LOCK = threading.Lock()

#: The backend explicitly selected in the *current context* (``use_backend``,
#: ``set_default_backend``, or an active session), or ``None`` for "interned".
_ACTIVE_BACKEND: ContextVar[Backend | None] = ContextVar("repro_active_backend", default=None)

#: Name → instance resolver installed by an active session so that lookups
#: (including ``use_backend`` switches *inside* the session) resolve to the
#: session's own instances rather than the process-wide shared ones.
_ACTIVE_PROVIDER: ContextVar[Callable[[str], Backend] | None] = ContextVar(
    "repro_backend_provider", default=None
)


def backend_names() -> tuple[str, ...]:
    """Every registered backend name (built-ins first, then plugins)."""
    return tuple(_FACTORIES)


def register_backend(name: str, factory: BackendFactory, replace: bool = False) -> None:
    """Register a backend factory under *name*.

    Third-party backends join the registry without touching core modules:
    once registered, the name works everywhere a built-in does — sessions,
    ``use_backend``, the differential oracle and the CLI.  Re-registering an
    existing name requires ``replace=True``.
    """
    if not name or not isinstance(name, str):
        raise ReproError("a backend name must be a non-empty string")
    if name in _FACTORIES and not replace:
        raise ReproError(f"backend {name!r} is already registered (pass replace=True to override)")
    _FACTORIES[name] = factory
    with _SHARED_LOCK:
        _SHARED.pop(name, None)


def create_backend(name: str, cache: EngineCache | None = None) -> Backend:
    """Build a fresh backend instance, optionally sharing *cache*."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ReproError(
            f"unknown engine backend {name!r}; expected one of {backend_names()}"
        ) from None
    return factory(cache)


def _shared_instance(name: str) -> Backend:
    if name not in _FACTORIES:
        raise ReproError(f"unknown engine backend {name!r}; expected one of {backend_names()}")
    instance = _SHARED.get(name)
    if instance is None:
        # Locked: concurrent first lookups must agree on one shared instance
        # (and, for the interned backend, one shared cache).
        with _SHARED_LOCK:
            instance = _SHARED.get(name)
            if instance is None:
                instance = create_backend(name)
                _SHARED[name] = instance
    return instance


def get_backend(name: str) -> Backend:
    """Look a backend up by name, resolving through the active session if any."""
    provider = _ACTIVE_PROVIDER.get()
    if provider is not None:
        return provider(name)
    return _shared_instance(name)


def get_default_backend() -> Backend:
    """The backend used when callers do not pass one explicitly.

    Resolution is context-local: an explicit :func:`use_backend` /
    :func:`set_default_backend` selection in this context wins, then an
    active session's backend, then the process-wide shared ``interned``
    instance.  New threads start from the base default, so a selection made
    in one thread never leaks into another.
    """
    active = _ACTIVE_BACKEND.get()
    if active is not None:
        return active
    return get_backend("interned")


def set_default_backend(name: str) -> str:
    """Select the default backend for the current context; returns the previous name."""
    previous = get_default_backend().name
    _ACTIVE_BACKEND.set(get_backend(name))
    return previous


@contextmanager
def use_backend(name: str):
    """Temporarily switch the default backend (restored on exit).

    The switch is scoped to the current context (thread / asyncio task), so
    concurrent workloads can hold different backends at the same time.
    """
    backend = get_backend(name)
    token = _ACTIVE_BACKEND.set(backend)
    try:
        yield backend
    finally:
        _ACTIVE_BACKEND.reset(token)


def default_cache() -> EngineCache:
    """The cache of the current interned backend (for stats and invalidation).

    Inside an active session this is the *session's* cache; otherwise the
    process-wide shared interned backend's cache.
    """
    backend = get_backend("interned")
    if not isinstance(backend, InternedBackend):
        raise ReproError("the 'interned' backend registration does not produce an InternedBackend")
    return backend.cache
