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
    executor.  Only compiled artefacts are cached, never answers: a
    repeated ``count`` or ``exists`` reuses its plan and runs it again.
    Whole requests are memoised once, by the session.

The module also owns the read-only name → factory table and the lookups
(:func:`get_backend`, :func:`get_default_backend`).  Which backend runs is
decided by the active :class:`repro.session.Session` alone: while a session
is active it installs a context-local *provider* (backed by
:mod:`contextvars`), so lookups resolve to the session's own backend
instances and cache; two threads (or two asyncio tasks) holding different
sessions never see each other's choice.  Outside any session, lookups
resolve to lazily built process-wide shared instances, and the default is
``interned``.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from repro.analysis import hooks as _verify_hooks
from repro.engine.cache import EngineCache
from repro.engine.fingerprints import atoms_fingerprint
from repro.engine.interned import (
    ExecutionStats,
    InternedPlan,
    bind_template,
    canonical_source,
    compile_template,
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
    "backend_names",
    "create_backend",
    "get_backend",
    "get_default_backend",
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


class NaiveBackend(Backend):
    """The recursive reference implementation (pre-engine semantics).

    The original recursive backtracker, kept faithful so that the interned
    engine always has a trusted oracle: the target is re-indexed per call and
    the next atom is chosen greedily per node by re-counting candidates.
    Select it with ``Session(backend="naive")`` or ``get_backend("naive")``.
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
    list instead of a variable dictionary.  A plan is a target-free
    template, compiled once per query shape, bound to each target (see
    :meth:`plan`).

    Compiled artefacts live in the shared :class:`EngineCache` — interned
    targets in the index layer, tagged with the dictionary's serial so an
    entry can never outlive the id space it was compiled against, with
    their bound plans memoised on them; templates in the plan layer, which
    hold no term id.  ``count`` and ``exists`` run the executor on the plan
    every time; their answers are not cached.
    """

    name = "interned"

    def __init__(self, cache: EngineCache | None = None) -> None:
        self.cache = cache if cache is not None else EngineCache()
        self.stats = ExecutionStats()
        self.dictionary = TermDictionary()

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

    def plan(
        self,
        source_atoms: Iterable[Atom],
        target_atoms: Iterable[Atom],
        fixed: Mapping[Variable, Term] | Iterable[Variable] | None = None,
    ) -> InternedPlan:
        """The (cached) integer plan for a ``(source, target, fixed)`` triple.

        A plan bound to the target earlier, for the same source atoms and
        fixed set, is reused from the target's memo.  Otherwise the source's
        canonical form keys a template in the cache's plan layer, compiled
        only if no source of the same shape was planned before, and the
        template is bound to the target.  Either reuse counts as a plan-layer
        hit.  Under ``debug_verify_plans`` every plan is checked against
        *source_atoms* before it runs.
        """
        fixed_variables = frozenset(fixed or ())
        source = tuple(source_atoms)
        interned = self.target(target_atoms)
        key = (atoms_fingerprint(source), fixed_variables)
        plan = interned.plans.get(key)
        if plan is None:
            canonical = canonical_source(interned, source, fixed_variables)
            template = self.cache.plan_entry(
                canonical.key, lambda: compile_template(canonical.key)
            )
            plan = interned.plans[key] = bind_template(
                template,  # type: ignore[arg-type]
                self.dictionary,
                interned,
                canonical,
                fixed_variables,
            )
        else:
            self.cache.count_plan_hit()
        if _verify_hooks.verification_enabled():
            _verify_hooks.check_plan(
                plan,
                source_atoms=source,
                fixed_variables=fixed_variables,
                dictionary=self.dictionary,
            )
        return plan

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
        plan = self.plan(source_atoms, target_atoms, fixed)
        return interned_count(plan, self.dictionary, fixed, stats=self.stats)

    def exists(
        self,
        source_atoms: Iterable[Atom],
        target_atoms: Iterable[Atom],
        fixed: Mapping[Variable, Term] | None = None,
    ) -> bool:
        plan = self.plan(source_atoms, target_atoms, fixed)
        return interned_exists(plan, self.dictionary, fixed, stats=self.stats)


#: The backend names, in CLI presentation order.
BACKEND_NAMES = ("naive", "interned")

#: Name → factory: given an (optional) cache to share, build an instance.
#: The naive reference needs no cache and ignores the argument.
_FACTORIES: Mapping[str, Callable[[EngineCache | None], Backend]] = MappingProxyType(
    {
        "naive": lambda cache: NaiveBackend(),
        "interned": lambda cache: InternedBackend(cache=cache),
    }
)

#: Lazily built process-wide shared instances (the session-less path).
_SHARED: dict[str, Backend] = {}  # lint: disable=global-mutable-state -- the session-less shared instances; filled once per name under _SHARED_LOCK
_SHARED_LOCK = threading.Lock()

#: Backend resolver installed by the active session (``Session.activate``):
#: called with a name it returns the session-owned instance, called with
#: none the session's default backend.
_ACTIVE_PROVIDER: ContextVar[Callable[..., Backend] | None] = ContextVar(
    "repro_backend_provider", default=None
)


def backend_names() -> tuple[str, ...]:
    """Every backend name, in CLI presentation order."""
    return BACKEND_NAMES


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

    Inside an active session this is the session's backend; otherwise the
    process-wide shared ``interned`` instance.  Resolution is context-local,
    so new threads start outside any session, on the shared ``interned``
    instance.
    """
    provider = _ACTIVE_PROVIDER.get()
    if provider is not None:
        return provider()
    return _shared_instance("interned")


def default_cache() -> EngineCache:
    """The cache of the current interned backend (for stats and invalidation).

    Inside an active session this is the *session's* cache; otherwise the
    process-wide shared interned backend's cache.
    """
    backend = get_backend("interned")
    assert isinstance(backend, InternedBackend)
    return backend.cache
