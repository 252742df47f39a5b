"""E16 — dormant fault hooks: the hardened runtime must cost nothing off.

The fault-injection plane (``repro.faults``) places named sites on the
engine hot path: ``tick_handle()`` at the start of every driver-loop
execution, the countdown tick every 64 rows, and the admission check in
``Session._execute``.  All of them compile down to ContextVar reads when
nothing is armed.  This bench pins that claim on the E11 hot-path
workloads (the E7 chain/star containment-mapping families on the interned
backend):

* **baseline** — the workload as production runs it: no plan armed, no
  deadline (the sites still execute; they are part of the code path);
* **armed elsewhere** — a plan is armed but none of its rules watch the
  executor sites (a chaos campaign's worker/persist rules): the hot-path
  hooks stay dormant and must still cost < 2%;
* **armed on executor sites** (context, ungated) — rules watch
  ``executor.start``/``executor.tick`` but are keyed to an index that
  never occurs: the driver loops now poll every 64 rows and scan the
  rule list.  That is the price of *actually injecting* engine faults,
  reported for visibility, not budgeted.

The headline assertion: armed-elsewhere adds **< 2%** wall clock over
baseline.  Timing is paired: each round measures the three conditions
back to back and records the *ratios*, and the median paired ratio over
N rounds is compared — absolute times drift by tens of percent on shared
hardware, adjacent-pair ratios do not.  The JSON
record (``BENCH_E16.json``) carries ``dormant_ratio`` =
baseline/armed-elsewhere (≥ 0.98 committed) as the gated metric; with
``$BENCH_SMOKE=1`` the strict inline assertion is deferred to
``report.py --check``'s tolerance gate, like the other smoke runs.

Run standalone (``PYTHONPATH=src python benchmarks/bench_e16_faults.py``)
or through pytest with the bench collection options.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

from record import write_record  # noqa: E402

from repro.core.probe_tuples import most_general_probe_tuple
from repro.engine import ContainmentMappingBatcher
from repro.faults import FaultPlan, FaultRule, use_faults
from repro.session import Session
from repro.workloads.structured import chain_containment_pair, star_containment_pair

#: Maximum tolerated slowdown of the armed-never-firing run over baseline.
MAX_OVERHEAD = 0.02

#: The committed minimum of the gated ``dormant_ratio`` metric.
REQUIRED_RATIO = 1.0 - MAX_OVERHEAD

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

CHAIN_LENGTH = 8 if SMOKE else 16
STAR_RAYS = 3 if SMOKE else 4
ROUNDS = 9 if SMOKE else 25

#: A request key no workload ever binds: the rules below can never fire.
_NEVER = 1 << 30


def _armed_elsewhere_plan() -> FaultPlan:
    """A realistic chaos plan whose rules never touch the executor sites."""
    return FaultPlan(
        seed=0,
        rules=(
            FaultRule("parallel.request", "crash", keys=(_NEVER,)),
            FaultRule("persist.store", "busy", probability=0.1),
            FaultRule("persist.load", "error", probability=0.05),
            FaultRule("session.execute", "latency", keys=(_NEVER,), delay_ms=1.0),
        ),
    )


def _executor_armed_plan() -> FaultPlan:
    """Rules watching the executor sites, keyed so they can never fire."""
    return FaultPlan(
        seed=0,
        rules=(
            FaultRule("executor.start", "latency", keys=(_NEVER,), delay_ms=1.0),
            FaultRule("executor.tick", "latency", keys=(_NEVER,), delay_ms=1.0),
        ),
    )


def _mapping_workload(family: str) -> Callable[[], int]:
    # Inner repetitions lift each timed sample into the milliseconds —
    # a 2% budget is not measurable on a sub-100µs sample.
    if family == "chain":
        containee, containing = chain_containment_pair(CHAIN_LENGTH)
        reps = 100 if SMOKE else 400
    else:
        containee, containing = star_containment_pair(STAR_RAYS)
        reps = 10 if SMOKE else 20
    probe = most_general_probe_tuple(containee)
    grounded = containee.ground(probe)

    def run() -> int:
        total = 0
        for _ in range(reps):
            total += len(ContainmentMappingBatcher(containing).mappings(grounded, probe))
        return total

    return run


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def _paired_ratios(
    fn: Callable[[], int], dormant: FaultPlan, executor: FaultPlan
) -> tuple[float, float, float]:
    """(median baseline seconds, dormant ratio, executor ratio), paired.

    Each round times the three conditions back to back and records the
    armed/baseline ratios; slow drift moves all three together and cancels
    in the ratio, so the median over rounds isolates the hook cost.
    """
    plans = (None, dormant, executor)
    for plan in plans:  # warm the plan caches; steady state is under test
        with use_faults(plan):
            fn()
    baselines: list[float] = []
    ratios: tuple[list[float], list[float]] = ([], [])
    for _ in range(ROUNDS):
        samples = []
        for plan in plans:
            with use_faults(plan):
                start = time.perf_counter()
                fn()
                samples.append(time.perf_counter() - start)
        baselines.append(samples[0])
        ratios[0].append(samples[1] / samples[0])
        ratios[1].append(samples[2] / samples[0])
    return _median(baselines), _median(ratios[0]), _median(ratios[1])


def bench_e16_dormant_hooks() -> None:
    print(
        f"E16 — dormant fault hooks on the E11 hot path "
        f"(chain length {CHAIN_LENGTH}, star rays {STAR_RAYS}, "
        f"median of {ROUNDS} paired rounds)"
    )
    dormant = _armed_elsewhere_plan()
    executor = _executor_armed_plan()
    per_family = {}
    with Session(backend="interned").activate():
        for family in ("chain", "star"):
            baseline, dormant_ratio, executor_ratio = _paired_ratios(
                _mapping_workload(family), dormant, executor
            )
            per_family[family] = (baseline, dormant_ratio, executor_ratio)
            print(
                f"{family:<6} baseline {baseline * 1000:.2f}ms, "
                f"armed-elsewhere {(dormant_ratio - 1.0) * 100:+.2f}%, "
                f"executor-armed {(executor_ratio - 1.0) * 100:+.2f}%"
            )

    # Aggregate: baseline-time-weighted mean of the per-family paired
    # ratios — "how much slower is the whole hot-path mix".
    weight = sum(b for b, _, _ in per_family.values())
    overhead = (
        sum(b * r for b, r, _ in per_family.values()) / weight - 1.0
    )
    executor_overhead = (
        sum(b * r for b, _, r in per_family.values()) / weight - 1.0
    )
    ratio = 1.0 / (1.0 + overhead)
    print(
        f"aggregate dormant overhead: {overhead * 100:+.2f}% "
        f"(ratio {ratio:.3f}); executor-armed context: "
        f"{executor_overhead * 100:+.2f}%"
    )

    json_path = write_record(
        "e16",
        {
            "source": "bench_e16_faults",
            "backend": "interned",
            "chain_length": CHAIN_LENGTH,
            "star_rays": STAR_RAYS,
            "rounds": ROUNDS,
            "per_family": {
                family: {
                    "baseline_seconds": round(b, 6),
                    "armed_elsewhere_ratio": round(r, 4),
                    "executor_armed_ratio": round(e, 4),
                }
                for family, (b, r, e) in per_family.items()
            },
            "executor_armed_overhead": round(executor_overhead, 4),
            "metrics": {"dormant_ratio": round(ratio, 4)},
            "thresholds": {"dormant_ratio": REQUIRED_RATIO},
        },
    )
    print(f"json record written to {json_path}")

    if not SMOKE:
        assert overhead < MAX_OVERHEAD, (
            f"dormant fault hooks cost {overhead * 100:.2f}% on the engine hot "
            f"path (budget {MAX_OVERHEAD * 100:.0f}%)"
        )


if __name__ == "__main__":
    bench_e16_dormant_hooks()
