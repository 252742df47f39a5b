"""E11 — engine A/B: the naive reference vs the interned engine.

The engine claims that compiling a ``(source, target, fixed)`` triple once
into an integer plan — terms interned to dense ids, columnar target
storage, packed-key signature indexes, cost-ordered join steps,
static-filter hoisting, iterative trail-based execution — beats the naive
recursive backtracker that re-indexes the target and re-counts candidates
at every search node.  This experiment A/Bs the two backends on the
workloads the decision procedures actually run:

* the E7 *containee-scaling* family (chain containment mappings): the
  hom-search cost grows with the containee length; the interned backend
  must be **at least 8× faster** than naive on every chain length — the
  headline acceptance assertion;
* the E7 *containing-scaling* family (star queries, ``rays^rays``
  containment mappings): enumeration-bound, so the win is a constant
  factor (at least 2×);
* the E1 bag-evaluation scaling workload (Section 2 instance, scaled),
  at least 2×.

The floors are a third to a half of the worst case in the committed
record (2-vCPU x86-64 VM: chains 24-290×, stars 4.5-7.7×, E1 4.6-5.3×;
at smoke sizes chain4 ≈ 10×), so they gate regressions, not noise.
Cross-backend identity is asserted before any timing: verdicts,
certificates, counts and enumerated answer bags must be bit-identical
across both backends.

A machine-readable record of the run (timings, speedup ratios, committed
thresholds, case counts) is written to ``BENCH_E11.json`` at the repo root
(see ``benchmarks/record.py``); ``$BENCH_SMOKE=1`` shrinks the workload
sizes for CI smoke runs, where the hard speedup assertions are deferred to
``report.py --check``'s tolerance-based gate (small sizes on shared
runners are too noisy for exact thresholds).

Run standalone (``PYTHONPATH=src python benchmarks/bench_e11_engine.py``)
for the comparison table, or through pytest with the bench collection
options used by the other experiments.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

from record import write_record  # noqa: E402

from repro.core.decision import decide_bag_containment
from repro.core.probe_tuples import most_general_probe_tuple
from repro.engine import use_backend
from repro.evaluation.bag_evaluation import evaluate_bag
from repro.evaluation.homomorphisms import containment_mappings_to_ground
from repro.queries.cq import ConjunctiveQuery
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance
from repro.relational.terms import Constant
from repro.workloads.paper_examples import section2_q1, section2_q2, section2_query
from repro.workloads.structured import chain_containment_pair, star_containment_pair

#: Minimum interned-over-naive speedup on every E7 chain (decider-scaling) length.
REQUIRED_CHAIN_SPEEDUP = 8.0

#: Minimum interned-over-naive speedup on the enumeration-bound E7 star family.
REQUIRED_STAR_SPEEDUP = 2.0

#: Minimum interned-over-naive speedup on the E1 bag-evaluation sweep.
REQUIRED_EVAL_SPEEDUP = 2.0

#: The two backends under test, in comparison order.
BACKENDS = ("naive", "interned")

#: ``BENCH_SMOKE=1`` shrinks sizes for CI smoke runs (assertions deferred
#: to the record check, which allows the documented regression tolerance).
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

CHAIN_LENGTHS = (4, 8) if SMOKE else (8, 16, 24)
STAR_RAYS = (3,) if SMOKE else (4, 5)
EVAL_COPIES = 4 if SMOKE else 12


def _best_of(fn: Callable[[], object], repeats: int = 5) -> float:
    """Minimum wall-clock over *repeats* runs (the usual noise-robust timer)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _timed(fn: Callable[[], object], backend: str, repeats: int = 5) -> float:
    with use_backend(backend):
        fn()  # warm the plan caches once; steady-state is what the engine sells
        return _best_of(fn, repeats)


def _ab(fn: Callable[[], object], repeats: int = 5) -> float:
    """Naive-over-interned speedup for one workload closure."""
    with use_backend("naive"):
        naive = _best_of(fn, repeats)
    return naive / _timed(fn, "interned", repeats)


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #
def chain_mapping_workload(length: int) -> Callable[[], int]:
    """E7 containee scaling: containment mappings into a grounded chain."""
    containee, containing = chain_containment_pair(length)
    probe = most_general_probe_tuple(containee)
    grounded = containee.ground(probe)

    def run() -> int:
        return sum(1 for _ in containment_mappings_to_ground(containing, grounded, probe))

    return run


def star_mapping_workload(rays: int) -> Callable[[], int]:
    """E7 containing scaling: ``rays^rays`` containment mappings into a star."""
    containee, containing = star_containment_pair(rays)
    probe = most_general_probe_tuple(containee)
    grounded = containee.ground(probe)

    def run() -> int:
        return sum(1 for _ in containment_mappings_to_ground(containing, grounded, probe))

    return run


def scaled_section2_bag(copies: int, multiplicity: int = 1) -> BagInstance:
    """Disjoint copies of the Section 2 running instance (as in bench E1)."""
    counts: dict[Atom, int] = {}
    for copy in range(copies):
        c = {i: Constant(f"c{i}_{copy}") for i in range(1, 6)}
        counts[Atom("R", (c[1], c[2]))] = 2 * multiplicity
        counts[Atom("R", (c[1], c[3]))] = multiplicity
        counts[Atom("P", (c[2], c[4]))] = multiplicity
        counts[Atom("P", (c[5], c[4]))] = 3 * multiplicity
    return BagInstance(counts)


def evaluation_workload(copies: int) -> Callable[[], object]:
    """E1 scaling: bag evaluation of the running query on a scaled instance."""
    query: ConjunctiveQuery = section2_query()
    bag = scaled_section2_bag(copies)
    return lambda: evaluate_bag(query, bag)


# --------------------------------------------------------------------- #
# Benchmarks (collected with the bench_* options, also runnable directly)
# --------------------------------------------------------------------- #
def bench_e11_e7_chain_speedup():
    """Headline assertion: interned ≥ 8× naive on every E7 chain length."""
    speedups = {f"chain{length}": _ab(chain_mapping_workload(length)) for length in CHAIN_LENGTHS}
    worst = min(speedups.values())
    if not SMOKE:
        assert worst >= REQUIRED_CHAIN_SPEEDUP, (
            f"interned backend only {worst:.1f}x faster than naive on the E7 chain "
            f"workload (required {REQUIRED_CHAIN_SPEEDUP}x); speedups={speedups}"
        )
    return speedups


def bench_e11_e7_star_speedup():
    """Enumeration-bound star family: the interned win is a constant factor."""
    speedups = {f"star{rays}": _ab(star_mapping_workload(rays)) for rays in STAR_RAYS}
    worst = min(speedups.values())
    if not SMOKE:
        assert worst >= REQUIRED_STAR_SPEEDUP, (
            f"interned backend only {worst:.1f}x faster than naive on the E7 star "
            f"workload (required {REQUIRED_STAR_SPEEDUP}x); speedups={speedups}"
        )
    return speedups


def bench_e11_e1_evaluation_speedup():
    """Bag evaluation on the scaled Section 2 instance (bench E1's sweep)."""
    speedup = _ab(evaluation_workload(EVAL_COPIES), repeats=3)
    if not SMOKE:
        assert speedup >= REQUIRED_EVAL_SPEEDUP, (
            f"interned backend only {speedup:.1f}x faster on E1 evaluation "
            f"(required {REQUIRED_EVAL_SPEEDUP}x)"
        )
    return speedup


def bench_e11_backends_agree():
    """Bit-identical verdicts, certificates, counts and answers across backends."""
    # Mapping counts agree on both E7 families.
    for workload in [chain_mapping_workload(4), chain_mapping_workload(8),
                     star_mapping_workload(3)]:
        counts = {}
        for backend in BACKENDS:
            with use_backend(backend):
                counts[backend] = workload()
        assert len(set(counts.values())) == 1, f"mapping counts diverge: {counts}"

    # Bag evaluation returns identical answer bags.
    query = section2_query()
    bag = scaled_section2_bag(2)
    answers = {}
    for backend in BACKENDS:
        with use_backend(backend):
            answers[backend] = evaluate_bag(query, bag)
    assert answers["interned"] == answers["naive"], f"answer bags diverge: {answers}"

    # Full decisions ship identical verdicts and certificates.
    pairs = [
        chain_containment_pair(3),
        star_containment_pair(2),
        (section2_q2(), section2_q1()),  # the paper's refuted instance
    ]
    for containee, containing in pairs:
        results = {}
        for backend in BACKENDS:
            with use_backend(backend):
                results[backend] = decide_bag_containment(containee, containing)
        verdicts = {backend: result.contained for backend, result in results.items()}
        assert len(set(verdicts.values())) == 1, f"verdicts diverge: {verdicts}"
        certificates = {
            backend: result.counterexample for backend, result in results.items()
        }
        assert certificates["interned"] == certificates["naive"], (
            f"certificates diverge on {containee.name} vs {containing.name}"
        )


def main() -> None:
    workloads = [
        *[(f"E7 chain len={n}", chain_mapping_workload(n)) for n in CHAIN_LENGTHS],
        *[(f"E7 star rays={n}", star_mapping_workload(n)) for n in STAR_RAYS],
        (f"E1 eval copies={EVAL_COPIES}", evaluation_workload(EVAL_COPIES)),
    ]
    timings: dict[str, dict[str, float]] = {}
    print(f"{'workload':<20} {'naive':>10} {'interned':>10} {'speedup':>8}")
    for name, workload in workloads:
        row = {backend: _timed(workload, backend, repeats=3) for backend in BACKENDS}
        timings[name] = {backend: round(seconds, 6) for backend, seconds in row.items()}
        print(
            f"{name:<20} {row['naive'] * 1e3:>8.2f}ms {row['interned'] * 1e3:>8.2f}ms "
            f"{row['naive'] / row['interned']:>7.1f}x"
        )

    bench_e11_backends_agree()
    chain_speedups = bench_e11_e7_chain_speedup()
    star_speedups = bench_e11_e7_star_speedup()
    eval_speedup = bench_e11_e1_evaluation_speedup()
    status = "recorded (smoke run)" if SMOKE else "OK"
    print(
        f"\nE7 chain interned/naive speedups: "
        f"{', '.join(f'{k}={v:.1f}x' for k, v in chain_speedups.items())} "
        f"(required ≥ {REQUIRED_CHAIN_SPEEDUP}x) — {status}"
    )
    print(
        f"E7 star interned/naive speedups: "
        f"{', '.join(f'{k}={v:.1f}x' for k, v in star_speedups.items())} "
        f"(required ≥ {REQUIRED_STAR_SPEEDUP}x) — {status}"
    )
    print(
        f"E1 evaluation interned/naive speedup: {eval_speedup:.1f}x "
        f"(required ≥ {REQUIRED_EVAL_SPEEDUP}x) — {status}"
    )

    path = write_record(
        "e11",
        {
            "source": "bench_e11_engine",
            "smoke": SMOKE,
            "backends": list(BACKENDS),
            "case_count": len(workloads),
            "chain_lengths": list(CHAIN_LENGTHS),
            "star_rays": list(STAR_RAYS),
            "timings_seconds": timings,
            "metrics": {
                "interned_over_naive_chain": round(min(chain_speedups.values()), 3),
                "interned_over_naive_star": round(min(star_speedups.values()), 3),
                "interned_over_naive_eval": round(eval_speedup, 3),
                **{
                    f"interned_over_naive_{name}": round(value, 3)
                    for name, value in {**chain_speedups, **star_speedups}.items()
                },
            },
            "thresholds": {
                "interned_over_naive_chain": REQUIRED_CHAIN_SPEEDUP,
                "interned_over_naive_star": REQUIRED_STAR_SPEEDUP,
                "interned_over_naive_eval": REQUIRED_EVAL_SPEEDUP,
            },
            "backends_identical": True,  # asserted above
        },
    )
    print(f"json record written to {path}")


if __name__ == "__main__":
    main()
