"""The parallel fuzz-campaign runner behind ``repro fuzz``.

A *campaign* draws ``cases`` seeded (containee, containing) pairs from the
workload generators (adversarial boundary pairs, containment-biased and
unrelated random pairs, structured chain/star families, and the built-in
hand-written corpus), optionally applies one metamorphic mutation per case,
and pushes everything through the differential oracle.  Each case derives
its own RNG stream from ``(campaign seed, case index)``, so any case
reproduces in isolation no matter how the work was sharded.

Execution is either inline (``jobs <= 1``) or sharded across the worker
pool harness of :mod:`repro.parallel` (the same one ``Session.batch``
uses): the case indices are chunked, each worker rehydrates the driving
session from its :class:`~repro.session.SessionSpec` (fresh cache, same
backend and limits) and reports its results together with the snapshot
delta of its cache, and the campaign report aggregates the fleet-wide
cache statistics through :func:`repro.engine.merge_snapshots`.  Because
every case derives its RNG streams from ``(campaign seed, case index)``
alone, the generated corpus is byte-identical no matter how many jobs ran
it or which worker drew which chunk.  Both time and case budgets are
enforced between chunks; exhausting the time budget closes the result
iterator, which terminates and joins the pool.

Failures are shrunk in the parent process with the delta-debugging shrinker
(the predicate re-runs the oracle and asks for a discrepancy of the same
kind), and the whole campaign can be persisted as a replayable corpus via
:func:`campaign_corpus`.
"""

from __future__ import annotations

import dataclasses
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.analysis import hooks as _verify_hooks
from repro.core.decision import STRATEGIES
from repro.engine import (
    BACKEND_NAMES,
    default_cache,
    describe_snapshot,
    merge_snapshots,
    snapshot_delta,
)
from repro.exceptions import VerifyError
from repro.parallel import pool_imap
from repro.queries.cq import ConjunctiveQuery
from repro.verify.corpus import CorpusEntry, builtin_pairs
from repro.verify.metamorphic import MUTATIONS, expected_verdict, mutation_by_name
from repro.verify.oracles import (
    DIOPHANTINE_PATHS,
    Discrepancy,
    OracleConfig,
    run_differential_oracle,
)
from repro.verify.shrink import ShrinkResult, shrink_pair
from repro.workloads.random_queries import (
    random_adversarial_pair,
    random_containment_pair,
    random_unrelated_pair,
)
from repro.workloads.structured import chain_containment_pair, star_containment_pair

__all__ = [
    "CampaignConfig",
    "CampaignFailure",
    "CampaignReport",
    "CaseResult",
    "FuzzCase",
    "campaign_corpus",
    "generate_case",
    "run_campaign",
    "run_case",
]


@dataclass(frozen=True)
class CampaignConfig:
    """Shape, budget and sharding of one fuzz campaign."""

    cases: int = 200
    seed: int = 0
    jobs: int = 1
    strategies: tuple[str, ...] = STRATEGIES
    backends: tuple[str, ...] = BACKEND_NAMES
    diophantine_paths: tuple[str, ...] = DIOPHANTINE_PATHS
    mutation_rate: float = 0.5
    shrink_failures: bool = True
    time_budget: float | None = None
    chunk_size: int = 25
    num_atoms: int = 3
    head_size: int = 2
    #: Verify every compiled plan online during the
    #: campaign (see :mod:`repro.analysis`); the per-chunk verification
    #: counts ride the snapshot under the ``verify`` pseudo-layer.
    debug_verify_plans: bool = False
    #: Per-case wall-clock budget in milliseconds.  A case that exhausts it
    #: is recorded as an honest degraded result (``degraded="deadline"``,
    #: no consensus) instead of stalling the campaign on one pathological
    #: pair; ``None`` disables the per-case deadline.
    deadline_ms: int | None = None

    def __post_init__(self) -> None:
        if self.cases < 0:
            raise VerifyError("a campaign needs a non-negative case budget")
        if self.jobs < 1:
            raise VerifyError("jobs must be at least 1")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise VerifyError("mutation_rate must lie in [0, 1]")
        if self.time_budget is not None and self.time_budget <= 0:
            raise VerifyError("the time budget must be positive")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise VerifyError("deadline_ms must be positive when set")
        self.oracle_config()  # validate strategies / backends / paths eagerly

    def oracle_config(self) -> OracleConfig:
        return OracleConfig(
            strategies=self.strategies,
            backends=self.backends,
            diophantine_paths=self.diophantine_paths,
        )


@dataclass(frozen=True)
class FuzzCase:
    """One generated case: a pair, its provenance, and an optional mutation."""

    index: int
    origin: str
    containee: ConjunctiveQuery
    containing: ConjunctiveQuery
    mutation: str | None = None


@dataclass(frozen=True)
class CampaignFailure:
    """One flagged pair, optionally minimized by the shrinker.

    ``expected`` carries the verdict the pair *should* have (for mutant
    pairs, the transfer-rule prediction), so a corpus replay can flag
    verdict drift on the failing pair itself.
    """

    case_id: str
    origin: str
    containee: ConjunctiveQuery
    containing: ConjunctiveQuery
    discrepancies: tuple[Discrepancy, ...]
    expected: bool | None = None
    shrunk: ShrinkResult | None = None

    def describe(self) -> str:
        lines = [f"case {self.case_id} ({self.origin}):"]
        lines.extend(f"  {discrepancy.describe()}" for discrepancy in self.discrepancies)
        lines.append(f"  containee:  {self.containee}")
        lines.append(f"  containing: {self.containing}")
        if self.shrunk is not None:
            lines.append("  " + self.shrunk.describe().replace("\n", "\n  "))
        return "\n".join(lines)


@dataclass(frozen=True)
class CaseResult:
    """The outcome of one case, light enough to ship across processes."""

    index: int
    origin: str
    consensus: bool | None
    decisions: int
    skipped_runs: int
    mutation_checked: str | None
    failures: tuple[CampaignFailure, ...] = ()
    #: ``"deadline"`` when the case exhausted ``CampaignConfig.deadline_ms``
    #: — no consensus was established, honestly reported, never guessed.
    degraded: str | None = None


#: Weighted generator palette: (name, weight).  Adversarial boundary pairs
#: dominate because they are where the decision procedures have least slack.
_GENERATORS: tuple[tuple[str, float], ...] = (
    ("adversarial", 0.30),
    ("containment", 0.25),
    ("unrelated", 0.20),
    ("builtin", 0.10),
    ("chain", 0.08),
    ("star", 0.07),
)


def _case_rng(seed: int, index: int, stream: str) -> random.Random:
    """A per-case RNG stream, stable across run shapes and worker shardings."""
    return random.Random(f"{seed}:{index}:{stream}")


def generate_case(config: CampaignConfig, index: int) -> FuzzCase:
    """Deterministically draw case *index* of the campaign."""
    rng = _case_rng(config.seed, index, "gen")
    choice = rng.random()
    cumulative = 0.0
    name = _GENERATORS[-1][0]
    for generator_name, weight in _GENERATORS:
        cumulative += weight
        if choice < cumulative:
            name = generator_name
            break

    pair_seed = rng.randrange(2**30)
    if name == "adversarial":
        containee, containing = random_adversarial_pair(
            pair_seed, num_atoms=config.num_atoms, head_size=config.head_size
        )
        origin = f"adversarial[{pair_seed}]"
    elif name == "containment":
        containee, containing = random_containment_pair(
            pair_seed, num_atoms=config.num_atoms, head_size=config.head_size
        )
        origin = f"containment[{pair_seed}]"
    elif name == "unrelated":
        containee, containing = random_unrelated_pair(
            pair_seed, num_atoms=config.num_atoms, head_size=config.head_size
        )
        origin = f"unrelated[{pair_seed}]"
    elif name == "builtin":
        pairs = builtin_pairs()
        pick = rng.randrange(len(pairs))
        containee, containing = pairs[pick]
        origin = f"builtin[{pick}]"
    elif name == "chain":
        length = rng.randint(1, 3)
        containee, containing = chain_containment_pair(length)
        origin = f"chain[{length}]"
    else:
        rays = rng.randint(1, 2)
        containee, containing = star_containment_pair(rays)
        origin = f"star[{rays}]"

    mutation: str | None = None
    if rng.random() < config.mutation_rate:
        mutation = rng.choice(MUTATIONS).name
    return FuzzCase(index, origin, containee, containing, mutation=mutation)


def _run_case_with_deadline(config: CampaignConfig, index: int) -> CaseResult:
    """Run case *index* under the campaign's per-case deadline, if any.

    The engine driver loops poll the ambient deadline
    (:func:`repro.faults.runtime.deadline_scope`) and raise
    :class:`~repro.exceptions.DeadlineExceeded` mid-plan; the campaign
    converts that into an honest degraded result rather than a verdict.
    """
    from repro.exceptions import DeadlineExceeded
    from repro.faults.runtime import deadline_scope

    case = generate_case(config, index)
    try:
        with deadline_scope(config.deadline_ms):
            return run_case(case, config)
    except DeadlineExceeded:
        return CaseResult(
            index=case.index,
            origin=case.origin,
            consensus=None,
            decisions=0,
            skipped_runs=0,
            mutation_checked=None,
            degraded="deadline",
        )


def run_case(case: FuzzCase, config: CampaignConfig) -> CaseResult:
    """Run one case through the oracle (and its metamorphic check, if drawn)."""
    oracle_config = config.oracle_config()
    failures: list[CampaignFailure] = []

    report = run_differential_oracle(case.containee, case.containing, oracle_config)
    decisions = report.decisions
    skipped = sum(1 for run in report.runs if run.skipped is not None)
    if not report.ok:
        failures.append(
            CampaignFailure(
                case_id=f"case-{case.index}",
                origin=case.origin,
                containee=case.containee,
                containing=case.containing,
                discrepancies=report.discrepancies,
            )
        )

    mutation_checked: str | None = None
    if case.mutation is not None and report.consensus is not None:
        mutation = mutation_by_name(case.mutation)
        mutated = mutation.apply(
            case.containee, case.containing, _case_rng(config.seed, case.index, "mut")
        )
        if mutated is not None:
            mutation_checked = mutation.name
            mutant_containee, mutant_containing = mutated
            mutant_report = run_differential_oracle(
                mutant_containee, mutant_containing, oracle_config
            )
            decisions += mutant_report.decisions
            skipped += sum(1 for run in mutant_report.runs if run.skipped is not None)
            mutant_discrepancies = list(mutant_report.discrepancies)
            expected = expected_verdict(mutation.rule, report.consensus)
            if (
                expected is not None
                and mutant_report.consensus is not None
                and mutant_report.consensus != expected
            ):
                mutant_discrepancies.append(
                    Discrepancy(
                        "metamorphic",
                        f"mutation {mutation.name} ({mutation.rule}) requires the mutant verdict "
                        f"to be {'contained' if expected else 'not contained'}, got "
                        f"{'contained' if mutant_report.consensus else 'not contained'}",
                    )
                )
            if mutant_discrepancies:
                failures.append(
                    CampaignFailure(
                        case_id=f"case-{case.index}+{mutation.name}",
                        origin=f"{case.origin}+{mutation.name}",
                        containee=mutant_containee,
                        containing=mutant_containing,
                        discrepancies=tuple(mutant_discrepancies),
                        expected=expected,
                    )
                )

    return CaseResult(
        index=case.index,
        origin=case.origin,
        consensus=report.consensus,
        decisions=decisions,
        skipped_runs=skipped,
        mutation_checked=mutation_checked,
        failures=tuple(failures),
    )


def _persist_counts() -> tuple[int, int, int] | None:
    """The active session's persistent-tier ``(hits, misses, stores)``, if any."""
    from repro.session.session import current_session

    session = current_session()
    persistent = session.persistent if session is not None else None
    if persistent is None:
        return None
    return (persistent.stats.hits, persistent.stats.misses, persistent.stats.stores)


def _run_chunk(payload: tuple[CampaignConfig, tuple[int, ...]]) -> tuple[
    list[CaseResult], dict[str, tuple[int, int, int]]
]:
    """Pool worker: run a chunk of case indices, report the cache delta.

    When the driving session has a persistent tier, its ``(hits, misses,
    stores)`` delta rides along in the snapshot under the ``persist``
    pseudo-layer, so the campaign report can aggregate warm-start traffic
    fleet-wide just like the in-memory layers.
    """
    if _WORKER_INIT_ERROR is not None:
        raise VerifyError(
            f"campaign worker failed to rehydrate its session: {_WORKER_INIT_ERROR}"
        )
    config, indices = payload
    persist_before = _persist_counts()
    verify_before = (
        _verify_hooks.verification_counts() if config.debug_verify_plans else None
    )
    before = default_cache().snapshot()
    if config.debug_verify_plans:
        with _verify_hooks.debug_verify_plans():
            results = [_run_case_with_deadline(config, index) for index in indices]
    else:
        results = [_run_case_with_deadline(config, index) for index in indices]
    snapshot = snapshot_delta(default_cache().snapshot(), before)
    persist_after = _persist_counts()
    if persist_before is not None and persist_after is not None:
        snapshot = dict(snapshot)
        snapshot["persist"] = tuple(
            after - prior for after, prior in zip(persist_after, persist_before)
        )
    if verify_before is not None:
        snapshot = dict(snapshot)
        snapshot["verify"] = tuple(
            after - prior
            for after, prior in zip(_verify_hooks.verification_counts(), verify_before)
        )
    return results, snapshot


#: Keeps the worker's rehydrated session activated for the process lifetime,
#: and any rehydration failure for the first task to report.
_WORKER_SESSION_CONTEXT = None
_WORKER_INIT_ERROR: str | None = None


def _campaign_worker_init(spec) -> None:
    """Pool initializer: rehydrate the driving session in the worker.

    With a :class:`~repro.session.SessionSpec`, the worker builds an
    equivalent session (same backend and limits, fresh cache) and leaves it
    activated, so ``default_cache()`` and backend lookups inside
    :func:`run_case` resolve to the worker session — under both ``fork``
    and ``spawn`` start methods.  Without one the worker keeps the
    context's process-wide defaults, as before.

    Failures are recorded, never raised: an initializer that kills its
    worker would make the pool respawn it in an unbounded loop, hanging
    the campaign instead of failing it.
    """
    global _WORKER_SESSION_CONTEXT, _WORKER_INIT_ERROR
    if spec is None:
        return
    try:
        context = spec.build().activate()
        context.__enter__()
        _WORKER_SESSION_CONTEXT = context  # lint: disable=fork-shared-state -- deliberate per-worker state installed by the campaign initializer inside the worker; the parent never reads it
    except BaseException as error:  # noqa: BLE001 - workers must reach their tasks
        _WORKER_INIT_ERROR = repr(error)  # lint: disable=fork-shared-state -- deliberate per-worker error capture inside the worker; surfaced via campaign results, not the parent module


@dataclass
class CampaignReport:
    """Everything one campaign established, ready for printing or persisting."""

    config: CampaignConfig
    case_results: tuple[CaseResult, ...]
    failures: tuple[CampaignFailure, ...]
    elapsed: float
    engine_stats: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    stopped_early: bool = False

    @property
    def cases_run(self) -> int:
        return len(self.case_results)

    @property
    def decisions(self) -> int:
        return sum(result.decisions for result in self.case_results)

    @property
    def skipped_runs(self) -> int:
        return sum(result.skipped_runs for result in self.case_results)

    @property
    def mutations_checked(self) -> int:
        return sum(1 for result in self.case_results if result.mutation_checked is not None)

    @property
    def degraded_cases(self) -> int:
        return sum(1 for result in self.case_results if result.degraded is not None)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        rate = self.cases_run / self.elapsed if self.elapsed > 0 else float("inf")
        lines = [
            f"fuzz campaign: {self.cases_run}/{self.config.cases} cases "
            f"({self.decisions} decisions, {self.mutations_checked} metamorphic checks, "
            f"{self.skipped_runs} skipped runs) in {self.elapsed:.1f}s "
            f"[{rate:.0f} cases/s, jobs={self.config.jobs}, seed={self.config.seed}]"
        ]
        if self.stopped_early:
            lines.append("time budget exhausted before the case budget")
        contained = sum(1 for result in self.case_results if result.consensus is True)
        refuted = sum(1 for result in self.case_results if result.consensus is False)
        lines.append(f"verdicts: {contained} contained, {refuted} not contained")
        if self.degraded_cases:
            lines.append(
                f"{self.degraded_cases} cases degraded honestly "
                f"(per-case deadline {self.config.deadline_ms}ms)"
            )
        if self.engine_stats:
            stats = dict(self.engine_stats)
            persist = stats.pop("persist", None)
            verify = stats.pop("verify", None)
            lines.append("engine cache (aggregated across workers):")
            lines.extend("  " + line for line in describe_snapshot(stats).splitlines())
            if persist is not None:
                hits, misses, stores = persist
                lookups = hits + misses
                rate = hits / lookups if lookups else 0.0
                lines.append(
                    f"  persist  {hits} hits / {misses} misses ({rate:.0%}), {stores} stored"
                )
            if verify is not None:
                plans, violations = verify
                lines.append(f"  verify   {plans} plans checked, {violations} violations")
        if self.failures:
            lines.append(f"{len(self.failures)} DISCREPANCIES:")
            for failure in self.failures:
                lines.extend("  " + line for line in failure.describe().splitlines())
        else:
            lines.append("no discrepancies found")
        return "\n".join(lines)


def _shrink_failure(
    failure: CampaignFailure, config: CampaignConfig, deadline: float | None = None
) -> CampaignFailure:
    """Minimize a failure whose discrepancy the plain oracle can reproduce.

    *deadline* is a ``time.perf_counter`` timestamp: once it passes, the
    predicate reports "not reproduced" so the shrinker winds down quickly
    and the campaign's time budget bounds the shrink phase too.
    """
    kinds = {discrepancy.kind for discrepancy in failure.discrepancies}
    reproducible = kinds - {"metamorphic", "verdict-drift"}
    if not reproducible:
        return failure
    oracle_config = config.oracle_config()

    def still_failing(containee: ConjunctiveQuery, containing: ConjunctiveQuery) -> bool:
        if deadline is not None and time.perf_counter() > deadline:
            return False
        report = run_differential_oracle(containee, containing, oracle_config)
        return any(discrepancy.kind in reproducible for discrepancy in report.discrepancies)

    shrunk = shrink_pair(failure.containee, failure.containing, still_failing)
    return dataclasses.replace(failure, shrunk=shrunk)


def _chunks(config: CampaignConfig) -> list[tuple[CampaignConfig, tuple[int, ...]]]:
    size = max(1, config.chunk_size)
    return [
        (config, tuple(range(start, min(start + size, config.cases))))
        for start in range(0, config.cases, size)
    ]


def run_campaign(config: CampaignConfig | None = None, session=None) -> CampaignReport:
    """Run one fuzz campaign, inline or across a worker pool.

    With *session* (a :class:`repro.session.Session`), the campaign runs
    with that session active: inline decisions resolve backends through the
    session (sharing its engine cache, which the report's cache statistics
    then reflect), and worker pools rehydrate an equivalent session per
    worker from the session's :meth:`~repro.session.Session.spec`.  Without
    one, the campaign uses the context's current defaults, as before.
    """
    config = config or CampaignConfig()
    context = session.activate() if session is not None else nullcontext()
    spec = session.spec() if session is not None else None
    with context:
        return _run_campaign(config, spec)


def _run_campaign(config: CampaignConfig, spec=None) -> CampaignReport:
    started = time.perf_counter()
    results: list[CaseResult] = []
    snapshots: list[dict[str, tuple[int, int, int]]] = []
    stopped_early = False

    def out_of_time() -> bool:
        return (
            config.time_budget is not None
            and time.perf_counter() - started > config.time_budget
        )

    payloads = _chunks(config)
    if config.jobs <= 1 or len(payloads) <= 1:
        for payload in payloads:
            if out_of_time():
                stopped_early = True
                break
            chunk_results, snapshot = _run_chunk(payload)
            results.extend(chunk_results)
            snapshots.append(snapshot)
    else:
        # The shared pool harness: chunked work stealing, worker failures
        # re-raised in the parent, pool terminated+joined when the result
        # iterator is closed (normally or by the time budget).
        chunk_stream = pool_imap(
            _run_chunk,
            payloads,
            jobs=config.jobs,
            initializer=_campaign_worker_init,
            initargs=(spec,),
            ordered=False,
        )
        try:
            for chunk_results, snapshot in chunk_stream:
                results.extend(chunk_results)
                snapshots.append(snapshot)
                if out_of_time():
                    stopped_early = True
                    break
        finally:
            chunk_stream.close()

    results.sort(key=lambda result: result.index)
    failures = [failure for result in results for failure in result.failures]
    if config.shrink_failures:
        # The time budget covers shrinking too: grant the shrink phase the
        # remaining budget (or one extra budget when the cases used it all,
        # so a flagged campaign still ships *some* minimization).
        deadline = None
        if config.time_budget is not None:
            remaining = config.time_budget - (time.perf_counter() - started)
            deadline = time.perf_counter() + max(remaining, config.time_budget / 4)
        failures = [_shrink_failure(failure, config, deadline) for failure in failures]

    return CampaignReport(
        config=config,
        case_results=tuple(results),
        failures=tuple(failures),
        elapsed=time.perf_counter() - started,
        engine_stats=merge_snapshots(snapshots),
        stopped_early=stopped_early,
    )


def campaign_corpus(report: CampaignReport) -> list[CorpusEntry]:
    """Regenerate the campaign's cases as a replayable corpus.

    Case generation is a pure function of ``(seed, index)``, so the corpus
    records the *base* pair of every executed case together with the
    consensus verdict the oracle established.  Failing pairs that are not
    base cases — mutants flagged by a metamorphic or differential check —
    are appended as extra entries carrying the failing pair itself (and the
    transfer-rule expected verdict, when defined), so every failure replays
    from the file alone; failures additionally note their shrunk reproducer.
    """
    shrunk_by_case = {
        failure.case_id: failure.shrunk
        for failure in report.failures
        if failure.shrunk is not None
    }

    def shrunk_note(case_id: str) -> str:
        shrunk = shrunk_by_case.get(case_id)
        if shrunk is None:
            return ""
        return f"shrunk reproducer: {shrunk.containee} / {shrunk.containing}"

    entries = []
    for result in report.case_results:
        case = generate_case(report.config, result.index)
        case_id = f"case-{case.index}"
        entries.append(
            CorpusEntry(
                case_id=case_id,
                origin=case.origin,
                containee=case.containee,
                containing=case.containing,
                expected=result.consensus,
                note=shrunk_note(case_id),
            )
        )

    base_ids = {entry.case_id for entry in entries}
    for failure in report.failures:
        if failure.case_id in base_ids:
            continue
        kinds = "/".join(sorted({d.kind for d in failure.discrepancies}))
        note = f"failing mutant ({kinds})"
        extra = shrunk_note(failure.case_id)
        if extra:
            note = f"{note}; {extra}"
        entries.append(
            CorpusEntry(
                case_id=failure.case_id,
                origin=failure.origin,
                containee=failure.containee,
                containing=failure.containing,
                expected=failure.expected,
                note=note,
            )
        )
    return entries
