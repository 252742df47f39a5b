"""E21 — plan templates and packed exponent vectors, per phase, on e2ebench's seed-0 streams.

A decision depends on its pair only up to a renaming of variables.  The
interned engine compiles a target-free plan *template* once per query
shape (keyed on a name-free canonical form of the source and the target's
bucket sizes) and binds it to each target; a bound plan is memoised on its
target.  The encoding carries each exponent vector as one packed ``int``
from ``_fold`` through ``_convolve``.  This bench replays one seed-0 pass
of e2ebench's ``wide``, ``mixed`` and ``warm`` streams in-process (a fresh
``Session`` per pass, memoised only on ``warm``, like the benchmark's
client) and records per request, in milliseconds (the median of
``ROUNDS`` passes):

* ``plan_ms`` — ``InternedBackend.plan``, split into ``compile_ms``
  (compiling templates; at a parent without templates, compiling plans),
  ``bind_ms`` (the canonical form and the bind; nothing at such a parent)
  and ``hit_ms`` (the ``plan()`` calls that compiled and bound nothing: a
  plan reused as it was);
* ``executor_ms`` — running the plans: the interned executor's ``count``,
  ``exists`` and consumed ``iterate`` time;
* ``fold_ms`` and ``convolve_ms`` — ``encoding._fold`` and ``encoding._convolve``;

and per pass ``compiles`` (templates compiled, or plans at such a parent)
and ``outcomes``, a digest of every request's verdict and certificate.

It also times cold-session ``Session.evaluate`` (a fresh session per run,
the best of ``EVAL_REPEATS``) on the E1 Section-2 instance scaled ×8 and
×32, and on the triangle and 3-path queries over a seeded 400-edge graph,
and it decides, and digests the most-general-probe MPI
(``MpiEncoding.describe()``) of, every distinct pair a seed-0 pass of
``mixed``, ``wide`` or ``warm`` sends, under both engine backends, and
asserts that both backends agree.

``$BENCH_E21_BASELINE=PATH`` names a second checkout (for example a
``git archive`` of the parent commit).  Each tree runs in its own
interpreter on its own ``src``, the trees alternating round by round; the
bench asserts that both report the same MPI digests, outcome digests and
evaluation answers, and the record keeps both trees' times.
``BENCH_SMOKE=1`` replays e2ebench's tiny streams and the smallest
evaluation instance instead (a CI smoke run; it overwrites the committed
record).

Run standalone (``PYTHONPATH=src python benchmarks/bench_e21_plan_templates.py``)
or through pytest with the bench collection options.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from record import write_record  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent

ROUNDS = 5
EVAL_REPEATS = 3
WORKLOADS = ("wide", "mixed", "warm")
BACKENDS = ("interned", "naive")
PHASES = ("plan_ms", "compile_ms", "bind_ms", "hit_ms", "executor_ms", "fold_ms", "convolve_ms")
GRAPH_EDGES, GRAPH_NODES = 400, 100


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _evaluation_cases(tiny: bool) -> dict:
    """Name -> (query, bag): the E1 instance scaled, and two graph queries."""
    from repro.queries.parser import parse_cq
    from repro.relational.atoms import Atom
    from repro.relational.instances import BagInstance
    from repro.relational.terms import Constant
    from repro.workloads.paper_examples import section2_query

    def section2(copies: int) -> BagInstance:
        counts = {}
        for copy in range(copies):
            c = {i: Constant(f"c{i}_{copy}") for i in range(1, 6)}
            counts[Atom("R", (c[1], c[2]))] = 2
            counts[Atom("R", (c[1], c[3]))] = 1
            counts[Atom("P", (c[2], c[4]))] = 1
            counts[Atom("P", (c[5], c[4]))] = 3
        return BagInstance(counts)

    cases = {"e1x8": (section2_query(), section2(8))}
    if tiny:
        return cases
    cases["e1x32"] = (section2_query(), section2(32))
    rng = random.Random("bench-e21-graph")
    edges: dict = {}
    while len(edges) < GRAPH_EDGES:
        u, v = rng.randrange(GRAPH_NODES), rng.randrange(GRAPH_NODES)
        edges[Atom("E", (Constant(f"n{u}"), Constant(f"n{v}")))] = 1
    graph = BagInstance(edges)
    cases["triangle400"] = (parse_cq("q(x, y, z) <- E(x, y), E(y, z), E(z, x)"), graph)
    cases["path3_400"] = (parse_cq("q(w, z) <- E(w, x), E(x, y), E(y, z)"), graph)
    return cases


def _worker(tiny: bool, digests: bool) -> dict:
    """Run inside one tree's interpreter: phase times per workload, evaluation, digests."""
    sys.path.insert(0, str(REPO_ROOT / "e2ebench"))
    import pools
    from repro import Session
    from repro.core import encoding
    from repro.engine import backends, interned

    seconds = dict.fromkeys(("plan", "compile", "bind", "hit", "executor", "fold", "convolve"), 0.0)
    compiles = [0]
    templated = hasattr(interned, "compile_template")

    def timed(slot, function, counted=False):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            if counted:
                compiles[0] += 1
            try:
                return function(*args, **kwargs)
            finally:
                seconds[slot] += time.perf_counter() - started

        return wrapper

    def timed_iterate(function):
        def wrapper(*args, **kwargs):
            solutions = function(*args, **kwargs)
            while True:
                started = time.perf_counter()
                try:
                    solution = next(solutions)
                except StopIteration:
                    seconds["executor"] += time.perf_counter() - started
                    return
                seconds["executor"] += time.perf_counter() - started
                yield solution

        return wrapper

    plan = backends.InternedBackend.plan

    def timed_plan(self, *args, **kwargs):
        work = seconds["compile"] + seconds["bind"]
        started = time.perf_counter()
        try:
            return plan(self, *args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            seconds["plan"] += elapsed
            if seconds["compile"] + seconds["bind"] == work:
                seconds["hit"] += elapsed

    backends.InternedBackend.plan = timed_plan
    if templated:
        backends.compile_template = timed("compile", backends.compile_template, counted=True)
        backends.canonical_source = timed("bind", backends.canonical_source)
        backends.bind_template = timed("bind", backends.bind_template)
    else:
        backends.compile_interned_plan = timed("compile", backends.compile_interned_plan, counted=True)
    backends.interned_iterate = timed_iterate(backends.interned_iterate)
    backends.interned_count = timed("executor", backends.interned_count)
    backends.interned_exists = timed("executor", backends.interned_exists)
    encoding._fold = timed("fold", encoding._fold)
    encoding._convolve = timed("convolve", encoding._convolve)

    result: dict = {"workloads": {}, "evaluate_ms": {}}
    for name in WORKLOADS:
        workload = pools.build(name, 0, tiny=tiny)
        seconds.update(dict.fromkeys(seconds, 0.0))
        compiles[0] = 0
        session = Session(memoize=workload.memoize)
        outcomes = []
        for item in workload.items:
            outcome = session.decide(item.request)
            outcomes.append(f"{item.key} {outcome.verdict!r} {outcome.certificate!r}")
        per_request = 1000 / len(workload.items)
        result["workloads"][name] = {
            "requests": len(workload.items),
            "compiles": compiles[0],
            "outcomes": _digest(outcomes),
            **{f"{slot}_ms": value * per_request for slot, value in seconds.items()},
        }

    answers = {}
    for label, (query, bag) in _evaluation_cases(tiny).items():
        best = float("inf")
        for _ in range(EVAL_REPEATS):
            started = time.perf_counter()
            outcome = Session().evaluate(query, bag)
            best = min(best, time.perf_counter() - started)
        result["evaluate_ms"][label] = best * 1000
        answers[label] = _digest(sorted(repr(item) for item in outcome.value.items()))
    result["answers"] = answers

    if digests:
        result["digests"] = {}
        for name in WORKLOADS:
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


def _median(values) -> float:
    return round(statistics.median(values), 4)


def bench_e21_plan_templates() -> None:
    tiny = bool(os.environ.get("BENCH_SMOKE"))
    baseline = os.environ.get("BENCH_E21_BASELINE")
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
        results[label] = {
            "digests": first["digests"],
            "answers": first["answers"],
            "workloads": {},
            "evaluate_ms": {
                case: _median(run["evaluate_ms"][case] for run in rounds)
                for case in first["evaluate_ms"]
            },
        }
        for name, counts in first["workloads"].items():
            for other in rounds[1:]:
                again = other["workloads"][name]
                assert (again["compiles"], again["outcomes"]) == (counts["compiles"], counts["outcomes"])
                assert other["answers"] == first["answers"]
            medians = {
                phase: _median(run["workloads"][name][phase] for run in rounds) for phase in PHASES
            }
            results[label]["workloads"][name] = {**counts, **medians}

    change = results["change"]
    print(f"E21 — plan templates and packed vectors on e2ebench's seed-0 streams{' (tiny)' if tiny else ''}")
    for name, counts in change["workloads"].items():
        row = f"    {name:<6} requests {counts['requests']}, compiles {counts['compiles']}, " + ", ".join(
            f"{phase} {counts[phase]}" for phase in PHASES
        )
        if baseline:
            before = results["baseline"]["workloads"][name]
            row += f"\n           baseline compiles {before['compiles']}, " + ", ".join(
                f"{phase} {before[phase]}" for phase in PHASES
            )
            assert counts["outcomes"] == before["outcomes"], f"{name}: outcomes differ"
        print(row)
    for case, value in change["evaluate_ms"].items():
        row = f"    evaluate {case:<11} {value} ms"
        if baseline:
            row += f" (baseline {results['baseline']['evaluate_ms'][case]} ms)"
            assert change["answers"][case] == results["baseline"]["answers"][case], case
        print(row)
    for name in WORKLOADS:
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
        for key in ("compiles", *PHASES)
    }
    metrics.update({f"evaluate_{case}_ms": value for case, value in change["evaluate_ms"].items()})
    payload: dict = {"source": "bench_e21_plan_templates", "seed": 0, "tiny": tiny}
    payload["rounds"] = ROUNDS
    payload["results"] = results
    payload["metrics"] = metrics
    payload["thresholds"] = {}
    print(f"record written to {write_record('e21', payload)}")


if __name__ == "__main__":
    if "--worker" in sys.argv:
        print(json.dumps(_worker("--tiny" in sys.argv, "--digests" in sys.argv)))
    else:
        bench_e21_plan_templates()
