"""The fuzz-campaign runner behind ``repro fuzz``.

A *campaign* draws ``cases`` seeded (containee, containing) pairs from the
workload generators (adversarial boundary pairs, containment-biased and
unrelated random pairs, structured chain/star families, and the built-in
hand-written corpus), optionally applies one metamorphic mutation per case,
and pushes everything through the differential oracle.  Each case derives
its own RNG stream from ``(campaign seed, case index)``, so any case
reproduces in isolation no matter how the work was sharded.

Every case is a :class:`CaseRequest` that the driving
:class:`~repro.session.Session` executes like any other request: serially
through :meth:`~repro.session.Session.submit` (``jobs <= 1``), or sharded
by :func:`repro.parallel.parallel_batch`, whose workers rehydrate the
session from its :class:`~repro.session.SessionSpec` and whose supervisor
retries, bisects and names a crashing case.  The session applies the
per-case ``deadline_ms`` (an out-of-budget case degrades honestly), and
the report aggregates the per-case cache deltas of the outcomes, the
session's persistent-tier movement and the per-case plan-check counts.
Because a case depends on ``(seed, index)`` alone, the generated corpus is
byte-identical for every job count.  The time budget is checked after
every case; exhausting it closes the outcome stream, which terminates and
joins any worker pool.

Failures are shrunk in the parent process with the delta-debugging shrinker
(the predicate re-runs the oracle and asks for a discrepancy of the same
kind), and the whole campaign can be persisted as a replayable corpus via
:func:`campaign_corpus`.
"""

from __future__ import annotations

import dataclasses
import random
import time
from contextlib import closing
from dataclasses import dataclass, field

from repro.analysis import hooks as _verify_hooks
from repro.core.decision import STRATEGIES
from repro.engine import BACKEND_NAMES, describe_snapshot
from repro.exceptions import VerifyError
from repro.parallel import merged_cache_stats, parallel_batch
from repro.queries.cq import ConjunctiveQuery
from repro.session.requests import Outcome
from repro.session.session import Session, current_session
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
    "CaseRequest",
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
    #: campaign (see :mod:`repro.analysis`); the per-case verification
    #: counts are summed into the report's ``verify`` pseudo-layer.
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
    #: ``(plans verified, violations)`` under ``debug_verify_plans``.  A
    #: result-cache hit skips the plan lookup, so the counts depend on what
    #: the session ran before and stay out of equality.
    plan_checks: tuple[int, int] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class CaseRequest:
    """Run case *index* of a campaign: the session request form of one case.

    :meth:`repro.session.Session.submit` executes it under the campaign's
    per-case ``deadline_ms``, so campaigns run on the serial and parallel
    request machinery every other workload uses.
    """

    config: CampaignConfig
    index: int


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


def run_case(case: FuzzCase, config: CampaignConfig) -> CaseResult:
    """Run one case through the oracle (and its metamorphic check, if drawn).

    Under ``config.debug_verify_plans`` every plan compiled for the case is
    verified online and the result carries the plan-check counts.
    """
    if not config.debug_verify_plans:
        return _check_case(case, config)
    before = _verify_hooks.verification_counts()
    with _verify_hooks.debug_verify_plans():
        result = _check_case(case, config)
    after = _verify_hooks.verification_counts()
    return dataclasses.replace(result, plan_checks=(after[0] - before[0], after[1] - before[1]))


def _check_case(case: FuzzCase, config: CampaignConfig) -> CaseResult:
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


def run_campaign(
    config: CampaignConfig | None = None, session: Session | None = None
) -> CampaignReport:
    """Run one fuzz campaign as requests of *session*, serially or sharded.

    *session* defaults to the active session, else a fresh one.  With
    ``jobs <= 1`` the cases run one by one through
    :meth:`~repro.session.Session.submit`; otherwise
    :func:`~repro.parallel.parallel_batch` shards them across workers
    rehydrated from ``session.spec()``, ``chunk_size`` cases per task.
    """
    config = config or CampaignConfig()
    if session is None:
        session = current_session() or Session()
    started = time.perf_counter()
    persistent = session.persistent
    persist_before = dataclasses.replace(persistent.stats) if persistent is not None else None

    requests = [CaseRequest(config, index) for index in range(config.cases)]
    stream = (
        parallel_batch(session, requests, config.jobs, chunk_size=config.chunk_size)
        if config.jobs > 1
        else (session.submit(request) for request in requests)
    )
    outcomes: list[Outcome] = []
    stopped_early = False
    with closing(stream):
        for outcome in stream:
            outcomes.append(outcome)
            if (
                config.time_budget is not None
                and len(outcomes) < config.cases
                and time.perf_counter() - started > config.time_budget
            ):
                stopped_early = True
                break

    results = [_case_result(config, outcome) for outcome in outcomes]
    engine_stats = merged_cache_stats(outcomes)
    if persistent is not None:
        stats = persistent.stats
        engine_stats["persist"] = (
            stats.hits - persist_before.hits,
            stats.misses - persist_before.misses,
            stats.stores - persist_before.stores,
        )
    if config.debug_verify_plans:
        checks = [result.plan_checks for result in results if result.plan_checks is not None]
        engine_stats["verify"] = (
            sum(plans for plans, _ in checks),
            sum(violations for _, violations in checks),
        )

    failures = [failure for result in results for failure in result.failures]
    if config.shrink_failures and failures:
        # The time budget covers shrinking too: grant the shrink phase the
        # remaining budget (or one extra budget when the cases used it all,
        # so a flagged campaign still ships *some* minimization).
        deadline = None
        if config.time_budget is not None:
            remaining = config.time_budget - (time.perf_counter() - started)
            deadline = time.perf_counter() + max(remaining, config.time_budget / 4)
        with session.activate():
            failures = [_shrink_failure(failure, config, deadline) for failure in failures]

    return CampaignReport(
        config=config,
        case_results=tuple(results),
        failures=tuple(failures),
        elapsed=time.perf_counter() - started,
        engine_stats=engine_stats,
        stopped_early=stopped_early,
    )


def _case_result(config: CampaignConfig, outcome: Outcome) -> CaseResult:
    """The case's result, or an honest degraded one when it ran out of budget."""
    if outcome.degraded is None:
        return outcome.value
    case = generate_case(config, outcome.request.index)
    return CaseResult(
        index=case.index,
        origin=case.origin,
        consensus=None,
        decisions=0,
        skipped_runs=0,
        mutation_checked=None,
        degraded=outcome.degraded,
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
