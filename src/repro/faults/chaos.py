"""Seeded chaos campaigns: prove the hardened runtime degrades, never lies.

A chaos campaign generates a seeded request workload (the fuzz runner's
case generator), runs it twice — once fault-free and serial (the oracle),
once under an armed :class:`~repro.faults.plan.FaultPlan` with a parallel
pool, a persistent tier and/or a wall-clock deadline (the *schedule*) —
and classifies every outcome:

* **matched** — verdict, certificate and error rendering byte-equal to the
  fault-free oracle run;
* **degraded** — the runtime gave an *honest* partial answer
  (``degraded="deadline"`` or ``degraded="quarantined"``): no verdict was
  invented, the reason is machine-readable;
* **silently wrong** — anything else.  The campaign invariant is that this
  bucket is empty: a fault may cost an answer, it must never corrupt one.

For persist schedules the campaign additionally drives the store's circuit
breaker through its full lifecycle (closed → open → half-open → closed)
with a count-limited injected failure burst and records the transitions.

Determinism: outcome-affecting rules (worker crashes, admission latency
under a deadline) are *keyed* to absolute request indices drawn from the
campaign seed, so the same seed replays the same degradations regardless
of pool scheduling; probabilistic rules are reserved for persist faults,
which the retry/breaker tier fully absorbs.  :meth:`ChaosReport.digest`
hashes the canonical per-case classification (timing excluded), so two
same-seed campaigns are byte-identical.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Any

from repro.engine.fingerprints import persistent_digest
from repro.exceptions import FaultError
from repro.faults.plan import FaultPlan, FaultRule, use_faults

__all__ = [
    "CHAOS_SCHEDULES",
    "ChaosConfig",
    "ChaosReport",
    "build_chaos_plan",
    "chaos_requests",
    "run_chaos",
]

#: The named fault schedules a campaign can run under.
CHAOS_SCHEDULES = ("persist", "worker", "deadline", "mixed")

#: Default wall-clock budget per request under deadline schedules, and the
#: injected admission latency that forces keyed requests past it.
_DEADLINE_MS = 400
_LATENCY_FACTOR = 2.5


@dataclass(frozen=True)
class ChaosConfig:
    """Shape and fault schedule of one chaos campaign."""

    cases: int = 200
    seed: int = 0
    schedule: str = "mixed"
    jobs: int = 2
    backend: str = "interned"
    chunk_size: int = 4
    #: Wall-clock bound per worker task; hung/crashed shards are retried
    #: and bisected by :func:`repro.parallel.parallel_batch` within it.
    task_timeout: float = 30.0
    #: Store path for persist schedules; ``None`` uses a fresh temp store.
    persist_path: str | None = None
    #: Per-request deadline override; ``None`` uses the schedule default.
    deadline_ms: int | None = None

    def __post_init__(self) -> None:
        if self.cases < 1:
            raise FaultError("a chaos campaign needs at least one case")
        if self.schedule not in CHAOS_SCHEDULES:
            raise FaultError(
                f"unknown chaos schedule {self.schedule!r}; "
                f"expected one of {CHAOS_SCHEDULES}"
            )
        if self.jobs < 1:
            raise FaultError("jobs must be at least 1")
        if self.chunk_size < 1:
            raise FaultError("chunk_size must be at least 1")
        if self.task_timeout <= 0:
            raise FaultError("task_timeout must be positive")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise FaultError("deadline_ms must be positive when set")


def chaos_requests(config: ChaosConfig) -> list[Any]:
    """The campaign's request stream: seeded pairs from the fuzz generators.

    Pure function of ``(seed, cases)`` — the faulted run and the fault-free
    oracle run see the exact same requests, and a same-seed replay sees
    them again.
    """
    from repro.session.requests import ContainmentRequest
    from repro.verify.runner import CampaignConfig, generate_case

    generator = CampaignConfig(
        cases=config.cases, seed=config.seed, mutation_rate=0.0, shrink_failures=False
    )
    requests: list[Any] = []
    for index in range(config.cases):
        case = generate_case(generator, index)
        requests.append(
            ContainmentRequest(case.containee, case.containing, verify_certificates=False)
        )
    return requests


def build_chaos_plan(config: ChaosConfig) -> tuple[FaultPlan, int | None]:
    """``(fault plan, deadline_ms)`` for the configured schedule.

    Outcome-affecting rules are keyed to request indices drawn from the
    campaign seed (crash keys and latency keys are disjoint, so each
    poison request has one expected degradation); persist rules are
    probabilistic — the retry/breaker tier must absorb them wholesale.
    """
    rng = Random(f"chaos:{config.seed}:{config.schedule}")
    rules: list[FaultRule] = []
    deadline_ms = config.deadline_ms
    crash_keys: tuple[int, ...] = ()

    if config.schedule in ("worker", "mixed"):
        crash_keys = tuple(sorted(rng.sample(range(config.cases), max(1, config.cases // 50))))
        rules.append(FaultRule("parallel.request", "crash", keys=crash_keys))
    if config.schedule in ("deadline", "mixed"):
        if deadline_ms is None:
            deadline_ms = _DEADLINE_MS
        eligible = [index for index in range(config.cases) if index not in set(crash_keys)]
        slow_keys = tuple(sorted(rng.sample(eligible, max(1, config.cases // 20))))
        rules.append(
            FaultRule(
                "session.execute",
                "latency",
                keys=slow_keys,
                delay_ms=deadline_ms * _LATENCY_FACTOR,
            )
        )
    if config.schedule in ("persist", "mixed"):
        rules.append(FaultRule("persist.store", "busy", probability=0.10))
        rules.append(FaultRule("persist.store", "torn-write", probability=0.05))
        rules.append(FaultRule("persist.store", "latency", probability=0.05, delay_ms=2.0))
        rules.append(FaultRule("persist.load", "busy", probability=0.10))
        rules.append(FaultRule("persist.load", "error", probability=0.05))

    return FaultPlan(seed=config.seed, rules=tuple(rules)), deadline_ms


def _breaker_lifecycle(config: ChaosConfig, path: str) -> tuple[str, ...]:
    """Drive the store's circuit breaker through one full open/close cycle.

    A count-limited injected failure burst opens the breaker (three
    consecutive store errors), the next store is skipped while it cools
    down, and after the cooldown a half-open probe succeeds and closes it.
    Returns the recorded state transitions.
    """
    from repro.engine.persist import PersistentCache

    store = PersistentCache(path, breaker_threshold=3, breaker_cooldown=0.25)
    burst = FaultPlan(
        seed=config.seed, rules=(FaultRule("persist.store", "error", count=3),)
    )
    try:
        with use_faults(burst):
            for probe in range(4):
                # Three failed writes open the breaker; the fourth is
                # skipped without touching sqlite (breaker_skipped).
                store.store("results", ("session", f"chaos-breaker-{probe}"), probe)
            time.sleep(0.3)  # past the cooldown: the next write half-opens
            store.store("results", ("session", "chaos-breaker-probe"), 99)
        return store.breaker.transitions
    finally:
        store.close()


def _stable_digest(value: Any) -> str:
    """A cross-run-stable token for a certificate/value in the replay digest."""
    if value is None:
        return "-"
    try:
        return persistent_digest(value)
    except Exception:  # noqa: BLE001 - best effort; repr is process-stable
        return repr(value)


@dataclass(frozen=True)
class CaseOutcome:
    """The canonical, timing-free classification of one chaos case."""

    index: int
    classification: str  # "matched" | "degraded" | "silently-wrong"
    degraded: str | None
    verdict: bool | None
    certificate_digest: str
    error: str | None


@dataclass(frozen=True)
class ChaosReport:
    """Everything one chaos campaign established."""

    config: ChaosConfig
    plan: FaultPlan
    deadline_ms: int | None
    cases: tuple[CaseOutcome, ...]
    breaker_transitions: tuple[str, ...]
    breaker_ok: bool
    elapsed: float

    @property
    def decisions(self) -> int:
        return len(self.cases)

    @property
    def matched(self) -> int:
        return sum(1 for case in self.cases if case.classification == "matched")

    @property
    def degraded(self) -> int:
        return sum(1 for case in self.cases if case.classification == "degraded")

    @property
    def quarantined(self) -> int:
        return sum(1 for case in self.cases if case.degraded == "quarantined")

    @property
    def deadline_degraded(self) -> int:
        return sum(1 for case in self.cases if case.degraded == "deadline")

    @property
    def silently_wrong(self) -> tuple[CaseOutcome, ...]:
        return tuple(case for case in self.cases if case.classification == "silently-wrong")

    @property
    def ok(self) -> bool:
        return not self.silently_wrong and self.breaker_ok

    def digest(self) -> str:
        """SHA-256 over the canonical per-case record (timing excluded).

        Two same-seed campaigns — no matter how the pool scheduled the
        shards — produce the same digest; this is the replay invariant the
        chaos tests assert byte-for-byte.
        """
        payload = repr(
            (
                self.config.schedule,
                self.config.seed,
                self.config.cases,
                tuple(
                    (
                        case.index,
                        case.classification,
                        case.degraded,
                        case.verdict,
                        case.certificate_digest,
                        case.error,
                    )
                    for case in self.cases
                ),
                self.breaker_transitions,
            )
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        lines = [
            f"chaos campaign ({self.config.schedule}): {self.decisions} decisions, "
            f"jobs={self.config.jobs}, seed={self.config.seed} in {self.elapsed:.1f}s",
            f"{self.plan.describe()}",
            f"outcomes: {self.matched} matched the fault-free oracle, "
            f"{self.quarantined} quarantined, {self.deadline_degraded} deadline-degraded, "
            f"{len(self.silently_wrong)} silently wrong",
        ]
        if self.breaker_transitions:
            verdict = "ok" if self.breaker_ok else "UNEXPECTED"
            lines.append(
                f"breaker lifecycle: {' -> '.join(self.breaker_transitions)} [{verdict}]"
            )
        for case in self.silently_wrong:
            lines.append(
                f"  SILENTLY WRONG case {case.index}: verdict={case.verdict} "
                f"error={case.error!r}"
            )
        lines.append(f"replay digest: {self.digest()}")
        lines.append(
            "invariant holds: every outcome correct-per-oracle or explicitly degraded"
            if self.ok
            else "INVARIANT VIOLATED"
        )
        return "\n".join(lines)


def _classify(index: int, faulted: Any, oracle: Any) -> CaseOutcome:
    if faulted.degraded is not None:
        return CaseOutcome(
            index=index,
            classification="degraded",
            degraded=faulted.degraded,
            verdict=faulted.verdict,
            certificate_digest=_stable_digest(faulted.certificate),
            error=faulted.error,
        )
    honest = (
        faulted.verdict == oracle.verdict
        and faulted.certificate == oracle.certificate
        and faulted.error == oracle.error
    )
    return CaseOutcome(
        index=index,
        classification="matched" if honest else "silently-wrong",
        degraded=None,
        verdict=faulted.verdict,
        certificate_digest=_stable_digest(faulted.certificate),
        error=faulted.error,
    )


def run_chaos(config: ChaosConfig | None = None) -> ChaosReport:
    """Run one chaos campaign and classify every outcome against the oracle.

    The oracle run is serial and fault-free; the chaos run arms the
    schedule's :class:`FaultPlan`, applies the deadline (if any) through
    ``Limits.deadline_ms``, attaches a persistent tier for persist
    schedules, and executes the same requests through
    ``Session.batch(jobs=..., capture_errors=True, task_timeout=...)``.
    """
    from repro.session.session import Limits, Session

    config = config or ChaosConfig()
    started = time.perf_counter()
    requests = chaos_requests(config)
    plan, deadline_ms = build_chaos_plan(config)

    oracle_session = Session(backend=config.backend)
    oracle = [oracle_session.submit_captured(request) for request in requests]

    wants_persist = config.schedule in ("persist", "mixed")
    temp_dir: str | None = None
    persist_path: str | None = None
    if wants_persist:
        persist_path = config.persist_path
        if persist_path is None:
            temp_dir = tempfile.mkdtemp(prefix="repro-chaos-")
            persist_path = str(Path(temp_dir) / "chaos-store.sqlite")

    breaker_transitions: tuple[str, ...] = ()
    breaker_ok = True
    try:
        session = Session(
            backend=config.backend,
            limits=Limits(deadline_ms=deadline_ms),
            fault_plan=plan,
            persist_path=persist_path,
        )
        try:
            faulted = list(
                session.batch(
                    requests,
                    jobs=config.jobs,
                    chunk_size=config.chunk_size,
                    capture_errors=True,
                    task_timeout=config.task_timeout,
                )
            )
        finally:
            session.close()
        if wants_persist and persist_path is not None:
            breaker_transitions = _breaker_lifecycle(config, persist_path)
            breaker_ok = breaker_transitions == ("open", "half-open", "closed")
    finally:
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)

    cases = tuple(
        _classify(index, faulted_outcome, oracle_outcome)
        for index, (faulted_outcome, oracle_outcome) in enumerate(zip(faulted, oracle))
    )
    return ChaosReport(
        config=config,
        plan=plan,
        deadline_ms=deadline_ms,
        cases=cases,
        breaker_transitions=breaker_transitions,
        breaker_ok=breaker_ok,
        elapsed=time.perf_counter() - started,
    )
