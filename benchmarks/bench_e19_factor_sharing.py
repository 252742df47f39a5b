"""E19 — per-phase counts of the encoding on e2ebench's seed-0 streams.

The containing side of a decision is enumerated per body factor
(ROADMAP item 2); factors that are renamed copies of an earlier one share
its ``vector -> count`` table, so the encoding compiles, enumerates and
folds one factor per class.  This bench replays one seed-0 pass of
e2ebench's ``wide`` and ``mixed`` streams in-process, each request through
a fresh ``Session(memoize=False)`` like the benchmark's own client, and
records per pass:

* ``plans`` — engine plans compiled (the session cache's plan misses);
* ``mappings`` — containment mappings the batcher returned
  (``ContainmentMappingBatcher.mappings``, e2ebench's ``engine.mappings``);
* ``folds`` — ``vector -> count`` tables folded (``encoding._fold``);
* ``fm_ms`` — milliseconds per request inside Fourier–Motzkin
  (``diophantine.solver.solve_strict_system``), the median of
  ``ROUNDS`` passes;
* ``outcomes`` — a digest of every request's verdict and certificate.

It also digests the most-general-probe MPI (``MpiEncoding.describe()``:
atoms, monomial, polynomial, mapping count) of every distinct pair a
seed-0 pass of ``mixed``, ``wide`` or ``warm`` sends, under both engine
backends.

``$BENCH_E19_BASELINE=PATH`` names a second checkout (for example a
``git archive`` of the parent commit).  Each tree runs in its own
interpreter on its own ``src``, the trees alternating round by round;
the bench asserts that both report the same MPI and outcome digests, and
the record keeps both trees' counts.  ``BENCH_SMOKE=1`` replays
e2ebench's tiny streams instead (a CI smoke run; it overwrites the
committed record).  Without a baseline it asserts only its own counts:
every renamed ray of a wide star shares the second factor's class, so
a wide request folds two tables.

Run standalone (``PYTHONPATH=src python benchmarks/bench_e19_factor_sharing.py``)
or through pytest with the bench collection options.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from record import write_record  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent

ROUNDS = 5
WORKLOADS = ("wide", "mixed")
DIGESTED = ("mixed", "wide", "warm")
BACKENDS = ("interned", "naive")


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _worker(tiny: bool, digests: bool) -> dict:
    """Run inside one tree's interpreter: counts per workload, and MPI digests."""
    sys.path.insert(0, str(REPO_ROOT / "e2ebench"))
    import pools
    from repro import Session
    from repro.core import encoding
    from repro.diophantine import solver
    from repro.engine.batch import ContainmentMappingBatcher

    counters = {"mappings": 0, "folds": 0, "fm_s": 0.0}
    mappings, fold, solve = ContainmentMappingBatcher.mappings, encoding._fold, solver.solve_strict_system

    def counted_mappings(self, *args, **kwargs):
        found = mappings(self, *args, **kwargs)
        counters["mappings"] += len(found)
        return found

    def counted_fold(*args):
        counters["folds"] += 1
        return fold(*args)

    def timed_solve(*args, **kwargs):
        started = time.perf_counter()
        try:
            return solve(*args, **kwargs)
        finally:
            counters["fm_s"] += time.perf_counter() - started

    ContainmentMappingBatcher.mappings = counted_mappings
    encoding._fold = counted_fold
    solver.solve_strict_system = timed_solve

    result: dict = {"workloads": {}}
    for name in WORKLOADS:
        items = pools.build(name, 0, tiny=tiny).items
        counters.update(mappings=0, folds=0, fm_s=0.0)
        session = Session(memoize=False)
        outcomes = []
        for item in items:
            outcome = session.decide(item.request)
            outcomes.append(f"{item.key} {outcome.verdict!r} {outcome.certificate!r}")
        result["workloads"][name] = {
            "requests": len(items),
            "plans": session.cache.plan_stats.misses,
            "mappings": counters["mappings"],
            "folds": counters["folds"],
            "fm_ms": round(1000 * counters["fm_s"] / len(items), 4),
            "outcomes": _digest(outcomes),
        }
    if digests:
        result["mpi"] = {}
        for name in DIGESTED:
            pairs = {}
            for item in pools.build(name, 0, tiny=tiny).items:
                request = item.request
                pairs.setdefault(f"{request.containee}|{request.containing}", request)
            for backend in BACKENDS:
                lines = []
                with Session(backend=backend, memoize=False).activate():
                    for key, request in sorted(pairs.items()):
                        mpi = encoding.encode_most_general(request.containee, request.containing)
                        lines.append(f"{key}\n{mpi.describe()}")
                result["mpi"][f"{name}/{backend}"] = {"pairs": len(lines), "digest": _digest(lines)}
    return result


def _run_tree(tree: Path, tiny: bool, digests: bool) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    command = [sys.executable, str(Path(__file__).resolve()), "--worker"]
    command += ["--tiny"] if tiny else []
    command += ["--digests"] if digests else []
    completed = subprocess.run(
        command, env=env, cwd=tree, capture_output=True, text=True, timeout=1800
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def bench_e19_factor_sharing() -> None:
    tiny = bool(os.environ.get("BENCH_SMOKE"))
    baseline = os.environ.get("BENCH_E19_BASELINE")
    trees = {"change": REPO_ROOT}
    if baseline:
        trees["baseline"] = Path(baseline).resolve()
    runs: dict[str, list[dict]] = {label: [] for label in trees}
    labels = list(trees)
    for round_ in range(ROUNDS):
        for label in labels if round_ % 2 == 0 else reversed(labels):
            runs[label].append(_run_tree(trees[label], tiny, digests=round_ == 0))

    results: dict = {}
    for label, rounds in runs.items():
        first = rounds[0]
        results[label] = {"mpi": first["mpi"], "workloads": {}}
        for name, counts in first["workloads"].items():
            for other in rounds[1:]:
                again = other["workloads"][name]
                assert {**again, "fm_ms": 0} == {**counts, "fm_ms": 0}, "counts must repeat"
            fm_ms = statistics.median(run["workloads"][name]["fm_ms"] for run in rounds)
            results[label]["workloads"][name] = {**counts, "fm_ms": fm_ms}

    change = results["change"]
    print(f"E19 — per-pass counts on e2ebench's seed-0 streams{' (tiny)' if tiny else ''}")
    for name, counts in change["workloads"].items():
        row = f"    {name:<6} " + ", ".join(
            f"{key} {counts[key]}" for key in ("requests", "plans", "mappings", "folds", "fm_ms")
        )
        if baseline:
            before = results["baseline"]["workloads"][name]
            row += "   (baseline " + ", ".join(
                f"{key} {before[key]}" for key in ("plans", "mappings", "folds", "fm_ms")
            ) + ")"
            assert counts["outcomes"] == before["outcomes"], f"{name}: outcomes differ"
        print(row)
    for key, entry in change["mpi"].items():
        same = ""
        if baseline:
            assert entry == results["baseline"]["mpi"][key], f"{key}: MPIs differ"
            same = ", identical to the baseline"
        print(f"    MPI {key:<15} {entry['pairs']} pairs, digest {entry['digest']}{same}")

    wide = change["workloads"]["wide"]
    assert wide["folds"] == 2 * wide["requests"], "a wide request folds one table per class"
    metrics = {
        f"{name}_{key}": counts[key]
        for name, counts in change["workloads"].items()
        for key in ("plans", "mappings", "folds", "fm_ms")
    }
    payload: dict = {"source": "bench_e19_factor_sharing", "seed": 0, "tiny": tiny}
    payload["rounds"] = ROUNDS
    payload["results"] = results
    payload["metrics"] = metrics
    payload["thresholds"] = {}
    print(f"record written to {write_record('e19', payload)}")


if __name__ == "__main__":
    if "--worker" in sys.argv:
        print(json.dumps(_worker("--tiny" in sys.argv, "--digests" in sys.argv)))
    else:
        bench_e19_factor_sharing()
