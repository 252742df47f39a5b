"""E20 — per-phase times from the encoding's table to Fourier–Motzkin, on e2ebench's seed-0 streams.

Theorem 4.1 decides an MPI from the rows ``e − e_i``, one per distinct
image exponent vector, and the encoding's convolved ``vector -> count``
table already holds those vectors.  The polynomial is that table
(``Polynomial.from_table``); the system normalises its rows once, when it
is built, and neither ``with_positivity`` nor the top level of
Fourier–Motzkin normalises them again.  This bench replays one seed-0 pass
of e2ebench's ``wide`` and ``mixed`` streams in-process, each request
through a fresh ``Session(memoize=False)`` like the benchmark's own client,
and records per request, in milliseconds (the median of ``ROUNDS``
passes):

* ``mpi_ms`` — building the MPI objects: ``encoding._image_polynomial``
  outside ``_fold`` and ``_convolve`` (the position table and turning the
  convolved table into a ``Polynomial``), plus
  ``MonomialPolynomialInequality.__post_init__``;
* ``rows_ms`` — building the rows: ``MonomialPolynomialInequality.to_linear_system``
  and ``HomogeneousStrictSystem.with_positivity``;
* ``convolve_ms`` — ``encoding._convolve``;
* ``fm_ms`` — ``diophantine.solver.solve_strict_system`` less the
  ``with_positivity`` call inside it;

and per pass ``rows`` (the rows ``to_linear_system`` returned, e2ebench's
``diophantine.system_rows``) and ``outcomes``, a digest of every request's
verdict and certificate.

It also decides, and digests the most-general-probe MPI
(``MpiEncoding.describe()``) of, every distinct pair a seed-0 pass of
``mixed``, ``wide`` or ``warm`` sends, under both engine backends, and
asserts that both backends agree.

``$BENCH_E20_BASELINE=PATH`` names a second checkout (for example a
``git archive`` of the parent commit).  Each tree runs in its own
interpreter on its own ``src``, the trees alternating round by round; the
bench asserts that both report the same MPI digests, outcome digests and
row counts, and the record keeps both trees' times.  ``BENCH_SMOKE=1``
replays e2ebench's tiny streams instead (a CI smoke run; it overwrites the
committed record).

Run standalone (``PYTHONPATH=src python benchmarks/bench_e20_table_rows.py``)
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
PHASES = ("mpi_ms", "rows_ms", "convolve_ms", "fm_ms")


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _worker(tiny: bool, digests: bool) -> dict:
    """Run inside one tree's interpreter: phase times per workload, and digests."""
    sys.path.insert(0, str(REPO_ROOT / "e2ebench"))
    import pools
    from repro import Session
    from repro.core import encoding
    from repro.diophantine import solver
    from repro.diophantine.inequalities import MonomialPolynomialInequality as Mpi
    from repro.linalg.systems import HomogeneousStrictSystem as System

    seconds = dict.fromkeys(("image", "fold", "convolve", "check", "rows", "positivity", "fm"), 0.0)
    rows = [0]

    def timed(slot, function):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                seconds[slot] += time.perf_counter() - started

        return wrapper

    def to_linear_system(self):
        system = timed_rows(self)
        rows[0] += len(system)
        return system

    timed_rows = timed("rows", Mpi.to_linear_system)
    encoding._image_polynomial = timed("image", encoding._image_polynomial)
    encoding._fold = timed("fold", encoding._fold)
    encoding._convolve = timed("convolve", encoding._convolve)
    Mpi.__post_init__ = timed("check", Mpi.__post_init__)
    Mpi.to_linear_system = to_linear_system
    System.with_positivity = timed("positivity", System.with_positivity)
    solver.solve_strict_system = timed("fm", solver.solve_strict_system)

    result: dict = {"workloads": {}}
    for name in WORKLOADS:
        items = pools.build(name, 0, tiny=tiny).items
        seconds.update(dict.fromkeys(seconds, 0.0))
        rows[0] = 0
        session = Session(memoize=False)
        outcomes = []
        for item in items:
            outcome = session.decide(item.request)
            outcomes.append(f"{item.key} {outcome.verdict!r} {outcome.certificate!r}")
        per_request = 1000 / len(items)
        result["workloads"][name] = {
            "requests": len(items),
            "rows": rows[0],
            "outcomes": _digest(outcomes),
            "mpi_ms": (seconds["image"] - seconds["fold"] - seconds["convolve"] + seconds["check"])
            * per_request,
            "rows_ms": (seconds["rows"] + seconds["positivity"]) * per_request,
            "convolve_ms": seconds["convolve"] * per_request,
            # with_positivity runs inside solve_strict_system (require_positive).
            "fm_ms": (seconds["fm"] - seconds["positivity"]) * per_request,
        }
    if digests:
        result["digests"] = {}
        for name in DIGESTED:
            pairs = {}
            for item in pools.build(name, 0, tiny=tiny).items:
                request = item.request
                pairs.setdefault(f"{request.containee}|{request.containing}", request)
            for backend in BACKENDS:
                mpis, decided = [], []
                session = Session(backend=backend, memoize=False)
                with session.activate():
                    for key, request in sorted(pairs.items()):
                        mpi = encoding.encode_most_general(request.containee, request.containing)
                        mpis.append(f"{key}\n{mpi.describe()}")
                        outcome = session.decide(request)
                        decided.append(f"{key} {outcome.verdict!r} {outcome.certificate!r}")
                result["digests"][f"{name}/{backend}"] = {
                    "pairs": len(mpis),
                    "mpi": _digest(mpis),
                    "outcomes": _digest(decided),
                }
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


def bench_e20_table_rows() -> None:
    tiny = bool(os.environ.get("BENCH_SMOKE"))
    baseline = os.environ.get("BENCH_E20_BASELINE")
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
        results[label] = {"digests": first["digests"], "workloads": {}}
        for name, counts in first["workloads"].items():
            for other in rounds[1:]:
                again = other["workloads"][name]
                assert (again["rows"], again["outcomes"]) == (counts["rows"], counts["outcomes"])
            medians = {
                phase: round(statistics.median(run["workloads"][name][phase] for run in rounds), 4)
                for phase in PHASES
            }
            results[label]["workloads"][name] = {**counts, **medians}

    change = results["change"]
    print(f"E20 — per-request phase times on e2ebench's seed-0 streams{' (tiny)' if tiny else ''}")
    for name, counts in change["workloads"].items():
        row = f"    {name:<6} requests {counts['requests']}, rows {counts['rows']}, " + ", ".join(
            f"{phase} {counts[phase]}" for phase in PHASES
        )
        if baseline:
            before = results["baseline"]["workloads"][name]
            row += "\n           baseline " + ", ".join(f"{phase} {before[phase]}" for phase in PHASES)
            assert counts["outcomes"] == before["outcomes"], f"{name}: outcomes differ"
            assert counts["rows"] == before["rows"], f"{name}: row counts differ"
        print(row)
    for name in DIGESTED:
        entries = [change["digests"][f"{name}/{backend}"] for backend in BACKENDS]
        assert all(entry == entries[0] for entry in entries), f"{name}: the backends disagree"
    for key, entry in change["digests"].items():
        same = ""
        if baseline:
            assert entry == results["baseline"]["digests"][key], f"{key}: digests differ"
            same = ", identical to the baseline"
        print(
            f"    {key:<15} {entry['pairs']} pairs, MPI {entry['mpi']}, "
            f"outcomes {entry['outcomes']}{same}"
        )

    metrics = {
        f"{name}_{key}": counts[key]
        for name, counts in change["workloads"].items()
        for key in ("rows", *PHASES)
    }
    payload: dict = {"source": "bench_e20_table_rows", "seed": 0, "tiny": tiny}
    payload["rounds"] = ROUNDS
    payload["results"] = results
    payload["metrics"] = metrics
    payload["thresholds"] = {}
    print(f"record written to {write_record('e20', payload)}")


if __name__ == "__main__":
    if "--worker" in sys.argv:
        print(json.dumps(_worker("--tiny" in sys.argv, "--digests" in sys.argv)))
    else:
        bench_e20_table_rows()
