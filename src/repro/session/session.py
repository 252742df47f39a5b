"""The :class:`Session` service facade: one object, every workload.

A session owns everything that used to live in process-wide module state —
the engine backend (and therefore the :class:`~repro.engine.EngineCache`
compiled plans land in), the decision-strategy selection, and the limits
(enumeration budgets, batch bounds, fuzz time budgets).  All service calls
flow through one compositional surface:

``decide``
    Containment under bag, set, or bag-set semantics.
``evaluate``
    Query evaluation under bag, set, or bag-set semantics (CQ or UCQ).
``mpi``
    The monomial–polynomial Diophantine encoding (and optional decision).
``containment_spectrum``
    Both directions, both semantics, one rewrite-safety verdict.
``verify`` / ``fuzz``
    The differential oracle on one pair / a whole campaign.
``batch``
    A streaming sweep over heterogeneous requests that amortises compiled
    match plans across the whole stream through the session cache.

Every call returns a uniform :class:`~repro.session.requests.Outcome`
(verdict + certificate + timing + cache delta).  Sessions are isolated from
each other and from the shared session-less instances through
:mod:`contextvars`: while a session call runs (or a ``with use_session(s):``
block is active), backend-by-name lookups anywhere in the library resolve to
the session's own backend instances, so two threads can safely run two
sessions with different backends and caches concurrently.
"""

from __future__ import annotations

import copy
import itertools
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.analysis import hooks as _verify_hooks
from repro.engine.backends import Backend, backend_names, create_backend
from repro.engine.cache import EngineCache, snapshot_delta
from repro.engine.persist import PersistentCache
from repro.engine import backends as _backends
from repro.exceptions import DeadlineExceeded, SessionError
from repro.faults import plan as _faults
from repro.faults.plan import ActiveFaults, FaultPlan, request_scope
from repro.faults.runtime import deadline_scope, session_entry
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.instances import BagInstance, SetInstance
from repro.session.requests import (
    ContainmentRequest,
    EvaluationRequest,
    MpiRequest,
    Outcome,
)

if TYPE_CHECKING:
    from repro.verify.runner import CaseRequest

__all__ = [
    "Limits",
    "Session",
    "SessionSpec",
    "current_session",
    "use_session",
]


@dataclass(frozen=True)
class Limits:
    """Per-session resource limits.

    ``bounded_guess_max_candidates`` caps the ΠP2 guess-&-check enumeration
    (strategies exceeding it raise
    :class:`~repro.exceptions.EnumerationBudgetError`).
    """

    bounded_guess_max_candidates: int = 2_000_000
    #: Wall-clock budget per service call, in milliseconds (``None`` =
    #: unbounded).  The engine driver loops poll a monotonic clock and a
    #: call that exhausts the budget yields an honest degraded Outcome
    #: (``verdict None``, ``degraded="deadline"``) instead of raising.
    deadline_ms: int | None = None

    def __post_init__(self) -> None:
        if self.bounded_guess_max_candidates < 1:
            raise SessionError("bounded_guess_max_candidates must be at least 1")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise SessionError("deadline_ms must be positive (or None)")


@dataclass(frozen=True)
class SessionSpec:
    """The picklable fingerprint of a :class:`Session`'s configuration.

    A session itself drags its whole engine cache (compiled plans, target
    indexes) along, so it is the wrong thing to ship to a worker process.
    The spec carries exactly the configuration — backend name, limits,
    memoisation flag, label — and :meth:`build` rehydrates an equivalent
    session (fresh cache, same behaviour) on the other side.  This is what
    :mod:`repro.parallel` sends through pool initializers, and it works under
    both ``fork`` and ``spawn`` start methods.
    """

    backend: str = "interned"
    limits: Limits = Limits()
    memoize: bool = True
    name: str = "worker"
    #: ``EngineCache.capacities`` of the source session: the worker's fresh
    #: cache is sized identically, so eviction behaviour (and therefore the
    #: cache-statistics stream) matches the parent's configuration.
    cache_capacities: tuple[int, int, int] = (512, 128, 4096)
    #: The parent session's persistent store path, if any: workers attach
    #: to the *same* store (SQLite WAL + short write transactions make the
    #: sharing safe), so memos built anywhere in the fleet warm
    #: every process — and the next run.
    persist_path: str | None = None
    #: Whether the source session verified plans online —
    #: workers inherit the same debugging posture.
    debug_verify_plans: bool = False
    #: The parent session's fault plan, if any: a frozen picklable value,
    #: so chaos campaigns inject the same seeded faults in every worker.
    fault_plan: FaultPlan | None = None

    def build(self) -> "Session":
        """Rehydrate an equivalent session (same configuration, fresh cache)."""
        max_plans, max_indexes, max_results = self.cache_capacities
        return Session(
            backend=self.backend,
            cache=EngineCache(
                max_plans=max_plans, max_indexes=max_indexes, max_results=max_results
            ),
            limits=self.limits,
            memoize=self.memoize,
            name=self.name,
            persist_path=self.persist_path,
            debug_verify_plans=self.debug_verify_plans,
            fault_plan=self.fault_plan,
        )


_SESSION_COUNTER = itertools.count(1)

#: ``Session._execute``'s default budget: the session's ``Limits.deadline_ms``.
_LIMITS_DEADLINE: Any = object()

#: The session active in the current context (thread / task), if any.
_CURRENT_SESSION: ContextVar["Session | None"] = ContextVar(
    "repro_current_session", default=None
)


class Session:
    """A self-contained service instance of the whole library.

    Parameters
    ----------
    backend:
        The default engine backend name for this session (one of
        :func:`~repro.engine.backend_names`; ``interned`` unless
        overridden).
    cache:
        The engine cache the session's stateful backends share; a fresh
        :class:`EngineCache` is created when omitted.
    limits:
        Resource limits (see :class:`Limits`).
    name:
        A label for logs and outcome traces; auto-numbered when omitted.
    memoize:
        Memoise pure decision and encoding results in the session cache's
        result layer (default on): repeated identical requests — the common
        shape of production traffic — are answered without re-running the
        pipeline, and show up as ``results`` hits in outcome cache deltas.
    persist_path:
        Back the session cache with a disk store at this path
        (:class:`~repro.engine.persist.PersistentCache`): the session's
        request memos (the ``memoize`` entries, the only answers any layer
        caches) warm across restarts, and parallel workers built from
        :meth:`spec` share the same store.  A missing/corrupt store
        silently degrades to cold behaviour.
    fault_plan:
        Arm a :class:`~repro.faults.plan.FaultPlan` for every call made
        through this session (chaos campaigns and resilience tests); the
        plan travels inside :meth:`spec` so parallel workers inject the
        same seeded faults.  ``None`` (the default) keeps every injection
        site a no-op.
    """

    def __init__(
        self,
        backend: str = "interned",
        cache: EngineCache | None = None,
        limits: Limits | None = None,
        name: str | None = None,
        memoize: bool = True,
        persist_path: "str | Path | None" = None,
        debug_verify_plans: bool = False,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.name = name if name is not None else f"session-{next(_SESSION_COUNTER)}"
        self.cache = cache if cache is not None else EngineCache()
        self.limits = limits if limits is not None else Limits()
        self.memoize = memoize
        #: When true, every plan compiled or retrieved while this session is
        #: active is soundness-verified (see :mod:`repro.analysis`).
        self.debug_verify_plans = debug_verify_plans
        self._backends: dict[str, Backend] = {}
        if backend not in backend_names():
            raise SessionError(
                f"unknown engine backend {backend!r}; expected one of {backend_names()}"
            )
        self.backend_name = backend
        self.fault_plan = fault_plan
        #: The armed per-process fault state; counters persist across the
        #: session's activations so count/after schedules span calls.
        self._active_faults = ActiveFaults(fault_plan) if fault_plan is not None else None
        self.persist_path = str(persist_path) if persist_path is not None else None
        if self.persist_path is not None:
            from repro.engine.fingerprints import persistent_digest
            from repro.faults.plan import use_faults

            # Arm the plan while the store connects, so ``persist.connect``
            # faults exercise the degraded-open path.
            with use_faults(self._active_faults):
                store = PersistentCache(
                    self.persist_path,
                    backend=self.backend_name,
                    limits_fingerprint=persistent_digest(self.limits),
                )
            self.cache.attach_persistent(store)

    @property
    def persistent(self) -> "PersistentCache | None":
        """The persistent cache tier backing this session, if any."""
        return self.cache.persistent

    @property
    def active_faults(self) -> ActiveFaults | None:
        """The armed per-process fault state built from ``fault_plan``, if any.

        The parallel chunk worker re-publishes this around its request loop
        so ``parallel.request`` faults fire outside :meth:`activate`.
        """
        return self._active_faults

    def close(self) -> None:
        """Detach and close the persistent tier (the session stays usable, cold)."""
        persistent = self.cache.persistent
        if persistent is not None:
            self.cache.attach_persistent(None)
            persistent.close()

    # ------------------------------------------------------------------ #
    # Backend ownership and context activation
    # ------------------------------------------------------------------ #
    def backend_instance(self, name: str | None = None) -> Backend:
        """The session-owned backend instance for *name* (built on first use).

        Stateful backends are constructed with the session's cache, so every
        backend of this session shares one plan cache; the instances
        are private to the session and never leak into other sessions or the
        process-wide defaults.
        """
        resolved = name if name is not None else self.backend_name
        if resolved not in self._backends:
            self._backends[resolved] = create_backend(resolved, cache=self.cache)
        return self._backends[resolved]

    def _with_backend(self, name: str) -> "Session":
        """A sibling that differs from this session only in ``backend_name``.

        It shares the cache and the backend-instance dict, so activating it
        runs *name* on this session's own instances — the differential
        oracle compares backends this way without recompiling anything
        (plan and index keys include each instance's dictionary serial).
        """
        sibling = copy.copy(self)
        sibling.backend_name = name
        return sibling

    @property
    def backend(self) -> Backend:
        """The session's default backend instance."""
        return self.backend_instance()

    @contextmanager
    def activate(self):
        """Make this session the context-local default for the enclosed block.

        Inside the block, :func:`repro.engine.get_default_backend` resolves
        to the session's backend and name-based lookups resolve to
        session-owned instances.  Activation nests and is restored on exit.
        """
        session_token = _CURRENT_SESSION.set(self)
        provider_token = _backends._ACTIVE_PROVIDER.set(self.backend_instance)
        verify_token = (
            _verify_hooks.set_enabled(True) if self.debug_verify_plans else None
        )
        faults_token = (
            _faults._ACTIVE.set(self._active_faults)
            if self._active_faults is not None
            else None
        )
        try:
            yield self
        finally:
            if faults_token is not None:
                _faults._ACTIVE.reset(faults_token)
            if verify_token is not None:
                _verify_hooks.reset(verify_token)
            _backends._ACTIVE_PROVIDER.reset(provider_token)
            _CURRENT_SESSION.reset(session_token)

    # ------------------------------------------------------------------ #
    # The uniform execution wrapper
    # ------------------------------------------------------------------ #
    def _execute(
        self,
        request: Any,
        run: Callable[[], Any],
        interpret: Callable[[Any], tuple[bool | None, Any | None]],
        memo_key: Any | None = None,
        deadline_ms: int | None = _LIMITS_DEADLINE,
    ) -> Outcome:
        """Run one call under the session: activation, deadline, memo, timing.

        *deadline_ms* is the call's wall-clock budget; it defaults to
        ``self.limits.deadline_ms``, and ``None`` runs the call unbudgeted.
        """
        if deadline_ms is _LIMITS_DEADLINE:
            deadline_ms = self.limits.deadline_ms
        with self.activate():
            before = self.cache.snapshot()
            started = time.perf_counter()
            try:
                with deadline_scope(deadline_ms):
                    # The ``session.execute`` injection site plus an up-front
                    # deadline check: admission latency and already-expired
                    # budgets degrade the call before any memo lookup or
                    # engine work (one ContextVar read each when unarmed).
                    session_entry()
                    if memo_key is not None and self.memoize:
                        # Decision and encoding results are pure functions of
                        # frozen request values, so memoising them in the
                        # session cache's result layer is always sound;
                        # repeated requests — the common shape of production
                        # traffic — hit here and skip the whole pipeline.  The
                        # hit shows up in the outcome's cache delta under
                        # ``results``.  A deadline abort raises out of the
                        # build before anything is cached, so a degraded run
                        # never poisons the memo.
                        value = self.cache.result(("session", memo_key), run)
                    else:
                        value = run()
            except DeadlineExceeded:
                elapsed = time.perf_counter() - started
                cache = snapshot_delta(self.cache.snapshot(), before)
                # Honest degradation: no verdict is ever guessed — the
                # outcome says "unknown, out of budget" with partial timing.
                return Outcome(
                    request=request,
                    value=None,
                    verdict=None,
                    certificate=None,
                    elapsed=elapsed,
                    cache=cache,
                    degraded="deadline",
                )
            elapsed = time.perf_counter() - started
            cache = snapshot_delta(self.cache.snapshot(), before)
        verdict, certificate = interpret(value)
        return Outcome(
            request=request,
            value=value,
            verdict=verdict,
            certificate=certificate,
            elapsed=elapsed,
            cache=cache,
        )

    # ------------------------------------------------------------------ #
    # Decision
    # ------------------------------------------------------------------ #
    def decide(
        self,
        containee: ConjunctiveQuery | ContainmentRequest,
        containing: ConjunctiveQuery | None = None,
        **options: Any,
    ) -> Outcome:
        """Decide a containment request (or an inline pair + options).

        Accepts either a prepared :class:`ContainmentRequest` or the pair
        plus any of its keyword fields (``semantics``, ``strategy``,
        ``verify_certificates``).
        """
        request = self._containment_request(containee, containing, options)
        return self._execute(
            request,
            lambda: self._run_containment(request),
            self._interpret_containment,
            # Query __eq__/__hash__ are structural (names are ignored), but
            # results embed the query objects — explain() prints their names
            # and certificates reference them — so the memo must distinguish
            # renamed copies to hand every caller back its own queries.
            memo_key=(request, request.containee.name, request.containing.name),
        )

    @staticmethod
    def _containment_request(
        containee: ConjunctiveQuery | ContainmentRequest,
        containing: ConjunctiveQuery | None,
        options: dict[str, Any],
    ) -> ContainmentRequest:
        if isinstance(containee, ContainmentRequest):
            if containing is not None or options:
                raise SessionError(
                    "pass either a ContainmentRequest or (containee, containing, **options), not both"
                )
            return containee
        if containing is None:
            raise SessionError("decide() needs a containing query")
        return ContainmentRequest(containee, containing, **options)

    def _run_containment(self, request: ContainmentRequest) -> Any:
        if request.semantics == "bag":
            from repro.core.decision import decide_bag_containment

            return decide_bag_containment(
                request.containee,
                request.containing,
                strategy=request.strategy,
                verify_counterexamples=request.verify_certificates,
                max_candidates=self.limits.bounded_guess_max_candidates,
            )
        if request.semantics == "set":
            from repro.containment.set_containment import decide_set_containment

            return decide_set_containment(request.containee, request.containing)
        from repro.containment.bag_set_containment import decide_bag_set_containment

        return decide_bag_set_containment(request.containee, request.containing)

    @staticmethod
    def _interpret_containment(value: Any) -> tuple[bool | None, Any | None]:
        if isinstance(value, bool):  # bag-set containment returns a plain bool
            return value, None
        verdict = value.contained
        certificate = getattr(value, "counterexample", None)
        if certificate is None:
            certificate = getattr(value, "witness", None)
        return verdict, certificate

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries | EvaluationRequest,
        instance: BagInstance | SetInstance | None = None,
        **options: Any,
    ) -> Outcome:
        """Evaluate a query (or a prepared :class:`EvaluationRequest`)."""
        if isinstance(query, EvaluationRequest):
            if instance is not None or options:
                raise SessionError(
                    "pass either an EvaluationRequest or (query, instance, **options), not both"
                )
            request = query
        else:
            if instance is None:
                raise SessionError("evaluate() needs an instance")
            request = EvaluationRequest(query, instance, **options)
        return self._execute(
            request, lambda: self._run_evaluation(request), lambda value: (None, None)
        )

    @staticmethod
    def _run_evaluation(request: EvaluationRequest) -> Any:
        query, instance = request.query, request.instance
        is_ucq = isinstance(query, UnionOfConjunctiveQueries)

        if request.semantics == "bag":
            if not isinstance(instance, BagInstance):
                raise SessionError("bag-semantics evaluation needs a BagInstance")
            from repro.evaluation.bag_evaluation import (
                bag_multiplicity,
                evaluate_bag,
                evaluate_bag_ucq,
            )

            if request.answer is not None:
                if is_ucq:
                    return evaluate_bag_ucq(query, instance)[request.answer]
                return bag_multiplicity(query, instance, request.answer)
            return evaluate_bag_ucq(query, instance) if is_ucq else evaluate_bag(query, instance)

        support = instance.support() if isinstance(instance, BagInstance) else instance
        if request.semantics == "set":
            from repro.evaluation.set_evaluation import evaluate_set, evaluate_set_ucq

            answers = (
                evaluate_set_ucq(query, support) if is_ucq else evaluate_set(query, support)
            )
            if request.answer is not None:
                return request.answer in answers
            return answers

        from repro.evaluation.bag_set_evaluation import evaluate_bag_set, evaluate_bag_set_ucq

        answers = (
            evaluate_bag_set_ucq(query, support) if is_ucq else evaluate_bag_set(query, support)
        )
        if request.answer is not None:
            return answers[request.answer]
        return answers

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def mpi(
        self,
        containee: ConjunctiveQuery | MpiRequest,
        containing: ConjunctiveQuery | None = None,
        **options: Any,
    ) -> Outcome:
        """Encode the MPI of a pair (or a prepared :class:`MpiRequest`).

        With ``decide=True`` the outcome's value is ``(encoding, decision)``
        and the verdict reports Diophantine solvability (with the witness as
        the certificate); otherwise the value is the bare encoding.
        """
        if isinstance(containee, MpiRequest):
            if containing is not None or options:
                raise SessionError(
                    "pass either an MpiRequest or (containee, containing, **options), not both"
                )
            request = containee
        else:
            if containing is None:
                raise SessionError("mpi() needs a containing query")
            request = MpiRequest(containee, containing, **options)
        return self._execute(
            request,
            lambda: self._run_mpi(request),
            self._interpret_mpi,
            memo_key=(request, request.containee.name, request.containing.name),
        )

    @staticmethod
    def _run_mpi(request: MpiRequest) -> Any:
        from repro.core.encoding import encode, encode_most_general

        if request.probe is None:
            encoding = encode_most_general(request.containee, request.containing)
        else:
            encoding = encode(request.containee, request.containing, request.probe)
        if not request.decide:
            return encoding
        from repro.diophantine.solver import decide_mpi

        return encoding, decide_mpi(encoding.inequality)

    @staticmethod
    def _interpret_mpi(value: Any) -> tuple[bool | None, Any | None]:
        if isinstance(value, tuple):
            _, decision = value
            return decision.solvable, decision.witness
        return None, None

    # ------------------------------------------------------------------ #
    # Spectrum, verification, fuzzing
    # ------------------------------------------------------------------ #
    def containment_spectrum(
        self, left: ConjunctiveQuery, right: ConjunctiveQuery
    ) -> Outcome:
        """Compare two queries under both semantics in both directions.

        The verdict reports rewrite safety (bag equivalence); the value is
        the full :class:`~repro.core.spectrum.ContainmentSpectrum`.
        """
        from repro.core.spectrum import compare

        return self._execute(
            ("containment_spectrum", left.name, right.name),
            lambda: compare(left, right),
            lambda spectrum: (spectrum.is_safe_substitution(), None),
        )

    def verify(
        self,
        containee: ConjunctiveQuery,
        containing: ConjunctiveQuery,
        config: Any | None = None,
    ) -> Outcome:
        """Run the differential oracle on one pair through this session.

        The verdict is the cross-path consensus (``None`` when the paths
        disagree); discrepancies live on the value, an
        :class:`~repro.verify.OracleReport`.
        """
        from repro.verify.oracles import run_differential_oracle

        return self._execute(
            ("verify", containee.name, containing.name),
            lambda: run_differential_oracle(containee, containing, config),
            lambda report: (report.consensus if report.ok else None, None),
            # The oracle runs many decisions; its budget is the campaign
            # time budget, not the per-request deadline.
            deadline_ms=None,
        )

    def fuzz(
        self,
        cases: int = 200,
        seed: int = 0,
        config: Any | None = None,
        **overrides: Any,
    ) -> Outcome:
        """Run a differential fuzz campaign routed through this session.

        Builds a :class:`~repro.verify.CampaignConfig` from the arguments
        (or takes a prepared one via ``config``) and runs every case as a
        request of this session — through :meth:`submit` serially, or
        sharded by :func:`repro.parallel.parallel_batch` across workers
        rehydrated from :meth:`spec`.  The verdict reports a clean campaign;
        the value is the full :class:`~repro.verify.CampaignReport`.
        """
        from repro.verify.runner import CampaignConfig, run_campaign

        if config is None:
            overrides.setdefault("debug_verify_plans", self.debug_verify_plans)
            config = CampaignConfig(cases=cases, seed=seed, **overrides)
        elif overrides:
            raise SessionError("pass either a prepared CampaignConfig or overrides, not both")
        return self._execute(
            ("fuzz", config.cases, config.seed),
            lambda: run_campaign(config, session=self),
            lambda report: (report.ok, None),
            # Campaigns budget themselves via ``time_budget``; each case
            # request carries ``CampaignConfig.deadline_ms`` (see submit),
            # so no deadline applies to the whole campaign.
            deadline_ms=None,
        )

    # ------------------------------------------------------------------ #
    # Streaming batches
    # ------------------------------------------------------------------ #
    def submit(
        self, request: ContainmentRequest | EvaluationRequest | MpiRequest | CaseRequest
    ) -> Outcome:
        """Execute one prepared request (the single-step form of :meth:`batch`).

        A :class:`~repro.verify.runner.CaseRequest` runs one fuzz case under
        its campaign's per-case ``deadline_ms``: an out-of-budget case
        degrades (``degraded="deadline"``) like any other request.
        """
        if isinstance(request, ContainmentRequest):
            return self.decide(request)
        if isinstance(request, EvaluationRequest):
            return self.evaluate(request)
        if isinstance(request, MpiRequest):
            return self.mpi(request)
        from repro.verify.runner import CaseRequest, generate_case, run_case

        if isinstance(request, CaseRequest):
            config = request.config
            return self._execute(
                request,
                lambda: run_case(generate_case(config, request.index), config),
                lambda result: (None if result.failures else result.consensus, None),
                deadline_ms=config.deadline_ms,
            )
        raise SessionError(f"cannot dispatch request of type {type(request).__name__}")

    def submit_captured(self, request: Any) -> Outcome:
        """Execute one request, folding any failure into an error outcome.

        This is the per-request step of ``batch(capture_errors=True)``; the
        parallel worker path calls the same method so serial and sharded
        streams render failures identically.
        """
        try:
            return self.submit(request)
        except Exception as error:  # noqa: BLE001 - service streams must survive
            return Outcome(request=request, value=None, error=repr(error))

    def spec(self, name: str | None = None) -> SessionSpec:
        """The picklable :class:`SessionSpec` that rehydrates this session's twin.

        The spec carries the backend *name*, limits and memoisation flag —
        not the cache — so a worker process can build an equivalent session
        cheaply (see :mod:`repro.parallel`).
        """
        return SessionSpec(
            backend=self.backend_name,
            limits=self.limits,
            memoize=self.memoize,
            name=name if name is not None else f"{self.name}-worker",
            cache_capacities=self.cache.capacities,
            persist_path=self.persist_path,
            debug_verify_plans=self.debug_verify_plans,
            fault_plan=self.fault_plan,
        )

    def batch(
        self,
        requests: Iterable[ContainmentRequest | EvaluationRequest | MpiRequest],
        capture_errors: bool = False,
        jobs: int | str = 1,
        chunk_size: int | None = None,
        task_timeout: float | None = None,
    ) -> Iterator[Outcome]:
        """Stream outcomes for a sweep of heterogeneous requests.

        With ``jobs=1`` (the default) execution is lazy (one request at a
        time, results yielded as they finish) and *amortised*: every request
        runs against the session's engine cache, so repeated sources,
        targets, and probe sweeps reuse compiled match plans and shared
        target indexes — and, with ``memoize`` on, whole decision results —
        across the stream, the service-path equivalent of the engine's batch
        APIs.

        With ``jobs > 1`` the request stream is sharded across a worker
        pool (:func:`repro.parallel.parallel_batch`): each worker runs its
        own session built from :meth:`spec`, chunks are scheduled
        work-stealing style so skewed workloads balance, outcomes stream
        back **in request order** with the same verdicts and certificates
        as the serial path, and worker cache deltas are folded back into
        this session's cache statistics.  ``chunk_size`` overrides the
        chunking heuristic (requests per worker task).  ``jobs="auto"``
        sizes the pool to the machine's core count
        (:func:`repro.parallel.resolve_jobs`); on a single-core box it
        falls back to the serial path with a once-per-process warning.

        With ``capture_errors=True`` a failing request yields an
        :class:`Outcome` carrying the error instead of raising, so one
        poisoned request cannot kill the stream.

        ``task_timeout`` (parallel path only) bounds each worker task's
        wall clock in seconds: a hung or dead worker's chunk is retried on
        another worker and, if it keeps failing, bisected until the poison
        request is quarantined (see :func:`repro.parallel.parallel_batch`).
        """
        if jobs == "auto" or not isinstance(jobs, int):
            from repro.parallel import resolve_jobs

            try:
                jobs = resolve_jobs(jobs)
            except Exception as error:
                raise SessionError(str(error)) from error
        if jobs < 1:
            raise SessionError("jobs must be at least 1")
        if jobs > 1:
            from repro.parallel import parallel_batch

            yield from parallel_batch(
                self,
                list(requests),
                jobs=jobs,
                chunk_size=chunk_size,
                capture_errors=capture_errors,
                task_timeout=task_timeout,
            )
            return

        for index, request in enumerate(requests):
            # The ambient request key lets keyed fault rules target the same
            # absolute index on the serial and parallel paths alike.  The
            # outcome is computed inside the scope but yielded outside it,
            # so the key never leaks into the consumer's context.
            with request_scope(index):
                outcome = (
                    self.submit_captured(request)
                    if capture_errors
                    else self.submit(request)
                )
            yield outcome

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session({self.name!r}, backend={self.backend_name!r})"


def current_session() -> Session | None:
    """The session active in the current context, or ``None``."""
    return _CURRENT_SESSION.get()


@contextmanager
def use_session(session: Session):
    """Make *session* the context-local default for a ``with`` block."""
    with session.activate():
        yield session
