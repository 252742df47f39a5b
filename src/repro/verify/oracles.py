"""Differential oracles: every decision path must tell the same story.

The library derives the bag-containment verdict along independently
implemented routes — three decision strategies (most-general probe,
all-probes, bounded guess-&-check), two homomorphism backends (the naive
reference and the integer-interned engine), two Diophantine feasibility
paths (exact Fourier–Motzkin vs the scipy LP fast path) — plus the sound-but-
incomplete refuter baselines and the cross-semantics implications.  A
*differential oracle* runs one (containee, containing) pair through every
requested combination and reports a :class:`Discrepancy` whenever

* two successful runs disagree on the verdict (``verdict-mismatch``);
* a negative verdict ships no counterexample, or its counterexample does
  not replay under direct bag evaluation (``certificate``);
* the bounded/random refuter finds a counterexample although the consensus
  verdict is "contained" (``refuter``);
* a positive bag-containment verdict is not matched by set containment,
  which bag containment implies (``set-semantics``);
* any run dies with an unexpected exception (``error``).

The oracle never raises on a misbehaving pair: failures become data, so a
fuzz campaign can collect, shrink and persist them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.refuters import bounded_bag_refuter, random_bag_refuter
from repro.containment.set_containment import is_set_contained
from repro.core.decision import (
    STRATEGIES,
    BagContainmentResult,
    decide_bag_containment,
    strategy_names,
)
from repro.engine import BACKEND_NAMES, backend_names, use_backend
from repro.exceptions import (
    CertificateError,
    ContainmentError,
    EnumerationBudgetError,
    VerifyError,
)
from repro.queries.cq import ConjunctiveQuery

__all__ = [
    "DIOPHANTINE_PATHS",
    "Discrepancy",
    "OracleConfig",
    "OracleReport",
    "StrategyRun",
    "run_differential_oracle",
]

#: The two routes to deciding the encoded linear system.
DIOPHANTINE_PATHS = ("exact", "lp")


@dataclass(frozen=True)
class OracleConfig:
    """Which combinations the differential oracle exercises.

    ``bounded_guess_max_candidates`` caps the enumeration of the ΠP2
    guess-&-check strategy; pairs whose Lemma 5.1 bound explodes past it
    are recorded as *skipped* rather than failing the oracle.  The refuter
    settings control the sound-but-incomplete cross-checks (``0`` trials
    disables the random refuter).
    """

    strategies: tuple[str, ...] = STRATEGIES
    backends: tuple[str, ...] = BACKEND_NAMES
    diophantine_paths: tuple[str, ...] = DIOPHANTINE_PATHS
    bounded_guess_max_candidates: int = 20_000
    refuter_max_multiplicity: int = 2
    refuter_trials: int = 25
    check_set_semantics: bool = True

    def __post_init__(self) -> None:
        for strategy in self.strategies:
            if strategy not in strategy_names():
                raise VerifyError(
                    f"unknown strategy {strategy!r}; expected one of {strategy_names()}"
                )
        for backend in self.backends:
            if backend not in backend_names():
                raise VerifyError(
                    f"unknown backend {backend!r}; expected one of {backend_names()}"
                )
        for path in self.diophantine_paths:
            if path not in DIOPHANTINE_PATHS:
                raise VerifyError(f"unknown path {path!r}; expected one of {DIOPHANTINE_PATHS}")
        if not (self.strategies and self.backends and self.diophantine_paths):
            raise VerifyError("the oracle needs at least one strategy, backend and path")


@dataclass(frozen=True)
class StrategyRun:
    """One decision run: a (strategy, diophantine path, backend) combination."""

    strategy: str
    path: str
    backend: str
    contained: bool | None = None
    skipped: str | None = None
    error: str | None = None
    certificate_ok: bool | None = None

    @property
    def label(self) -> str:
        return f"{self.strategy}/{self.path}/{self.backend}"


@dataclass(frozen=True)
class Discrepancy:
    """One way the decision paths failed to tell the same story."""

    kind: str
    detail: str

    def describe(self) -> str:
        return f"[{self.kind}] {self.detail}"


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one differential-oracle run on a (containee, containing) pair."""

    containee: ConjunctiveQuery
    containing: ConjunctiveQuery
    runs: tuple[StrategyRun, ...] = ()
    discrepancies: tuple[Discrepancy, ...] = ()
    consensus: bool | None = None
    decisions: int = field(default=0)

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def describe(self) -> str:
        verdict = {True: "contained", False: "not contained", None: "no consensus"}[self.consensus]
        lines = [
            f"{self.containee.name} vs {self.containing.name}: {verdict} "
            f"({self.decisions} decisions, {len(self.discrepancies)} discrepancies)"
        ]
        lines.extend("  " + discrepancy.describe() for discrepancy in self.discrepancies)
        return "\n".join(lines)


def _run_one(
    containee: ConjunctiveQuery,
    containing: ConjunctiveQuery,
    strategy: str,
    path: str,
    backend: str,
    config: OracleConfig,
) -> tuple[StrategyRun, list[Discrepancy]]:
    """Run one combination; certificate replay failures become discrepancies."""
    discrepancies: list[Discrepancy] = []
    label = f"{strategy}/{path}/{backend}"
    try:
        with use_backend(backend):
            result = decide_bag_containment(
                containee,
                containing,
                strategy=strategy,
                use_lp=(path == "lp"),
                verify_counterexamples=False,
                max_candidates=config.bounded_guess_max_candidates,
            )
    except EnumerationBudgetError as error:
        return StrategyRun(strategy, path, backend, skipped=str(error)), discrepancies
    except ContainmentError as error:
        discrepancies.append(Discrepancy("error", f"{label} raised: {error}"))
        return StrategyRun(strategy, path, backend, error=str(error)), discrepancies
    except Exception as error:  # noqa: BLE001 - fuzzing must survive anything
        discrepancies.append(Discrepancy("error", f"{label} raised: {error!r}"))
        return StrategyRun(strategy, path, backend, error=repr(error)), discrepancies

    certificate_ok = _replay_certificate(result, label, discrepancies)
    run = StrategyRun(
        strategy, path, backend, contained=result.contained, certificate_ok=certificate_ok
    )
    return run, discrepancies


def _replay_certificate(
    result: BagContainmentResult, label: str, discrepancies: list[Discrepancy]
) -> bool | None:
    """Replay a negative verdict's counterexample through bag evaluation."""
    if result.contained:
        return None
    if result.counterexample is None:
        discrepancies.append(
            Discrepancy("certificate", f"{label} answered 'not contained' without a counterexample")
        )
        return False
    try:
        verified = result.counterexample.verify(result.containee, result.containing)
    except CertificateError as error:
        discrepancies.append(Discrepancy("certificate", f"{label} certificate mismatch: {error}"))
        return False
    if not verified:
        discrepancies.append(
            Discrepancy(
                "certificate",
                f"{label} counterexample does not witness a violation under bag evaluation",
            )
        )
        return False
    return True


def run_differential_oracle(
    containee: ConjunctiveQuery,
    containing: ConjunctiveQuery,
    config: OracleConfig | None = None,
) -> OracleReport:
    """Hammer one pair through every requested combination and cross-check.

    The containee must be projection-free (pairs that are not are reported
    as a single ``error`` discrepancy, not raised, so generators feeding the
    oracle do not have to be perfect).
    """
    config = config or OracleConfig()
    runs: list[StrategyRun] = []
    discrepancies: list[Discrepancy] = []

    for strategy in config.strategies:
        # The bounded-guess strategy has no LP path: it enumerates vectors.
        paths = config.diophantine_paths if strategy != "bounded-guess" else ("exact",)
        for path in paths:
            for backend in config.backends:
                run, new_discrepancies = _run_one(
                    containee, containing, strategy, path, backend, config
                )
                runs.append(run)
                discrepancies.extend(new_discrepancies)

    decided = [run for run in runs if run.contained is not None]
    verdicts = {run.contained for run in decided}
    consensus: bool | None = next(iter(verdicts)) if len(verdicts) == 1 else None
    if len(verdicts) > 1:
        positive = sorted(run.label for run in decided if run.contained)
        negative = sorted(run.label for run in decided if not run.contained)
        discrepancies.append(
            Discrepancy(
                "verdict-mismatch",
                f"contained according to {positive} but not according to {negative}",
            )
        )

    if consensus is True:
        try:
            if config.check_set_semantics and not is_set_contained(containee, containing):
                discrepancies.append(
                    Discrepancy(
                        "set-semantics",
                        "bag containment holds but set containment (which it implies) fails",
                    )
                )
            if config.refuter_max_multiplicity > 0:
                outcome = bounded_bag_refuter(
                    containee, containing, max_multiplicity=config.refuter_max_multiplicity
                )
                if outcome.refuted:
                    assert outcome.counterexample is not None
                    discrepancies.append(
                        Discrepancy(
                            "refuter",
                            "bounded refuter found a counterexample against a positive "
                            f"consensus: {outcome.counterexample.describe()}",
                        )
                    )
            if config.refuter_trials > 0:
                outcome = random_bag_refuter(
                    containee, containing, trials=config.refuter_trials, seed=0
                )
                if outcome.refuted:
                    assert outcome.counterexample is not None
                    discrepancies.append(
                        Discrepancy(
                            "refuter",
                            "random refuter found a counterexample against a positive "
                            f"consensus: {outcome.counterexample.describe()}",
                        )
                    )
        except Exception as error:  # noqa: BLE001 - cross-checks must not crash campaigns
            discrepancies.append(Discrepancy("error", f"cross-check raised: {error!r}"))

    return OracleReport(
        containee=containee,
        containing=containing,
        runs=tuple(runs),
        discrepancies=tuple(discrepancies),
        consensus=consensus,
        decisions=len(decided),
    )
