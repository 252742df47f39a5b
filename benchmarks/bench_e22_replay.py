"""E22 — certificate replay, per phase, on e2ebench's seed-0 streams.

Every ⋢ verdict carries a counterexample bag, and the session replays it
through Equation 2 (``ContainmentCounterexample.verify`` →
``bag_multiplicity`` → ``BagBatchEvaluator``).  A skeleton is a tuple of
``(support index, m(β))`` read off each homomorphism's bindings, each bag
is read once into a weight list aligned with the support, and a factor the
answer binds completely (the whole body of the projection-free containee)
takes no engine call.  This bench replays one seed-0 pass of e2ebench's
``mixed`` and ``warm`` streams in-process (a fresh ``Session`` per pass,
memoised only on ``warm``, like the benchmark's client) and records per
⋢ request (per replay), in milliseconds (the median of ``ROUNDS`` passes):

* ``verify_ms`` — the whole replay, of which
* ``factors_ms`` — fixing the head and splitting the body into factors
  (``head_fixing`` and ``_body_factors``);
* ``engine_ms`` — the engine's enumeration (``iterate`` on either backend,
  consumed);
* ``skeletons_ms`` — the rest of the evaluators' construction: numbering
  the support and building skeletons (image atoms and head tuples at a
  parent that built them);
* ``weights_ms`` — reading the bag and weighting the skeletons
  (``multiplicity``, or ``Support.weights`` once per pair and
  ``multiplicity_at`` per side where the tree has them);

and per pass ``replays`` and ``engine_calls`` (the engine calls the replays
make) and ``outcomes``, a digest of every request's verdict and
certificate.

It also times cold-session ``Session.evaluate`` (a fresh session per run,
the best of ``EVAL_REPEATS``) on the E1 Section-2 instance scaled ×8 and
×32 and on the triangle and 3-path queries over a seeded 400-edge graph
(E21's instances), and the bounded and random refuters (best of
``EVAL_REPEATS``).  It decides every distinct pair a seed-0 pass of
``mixed``, ``wide`` or ``warm`` sends (740 pairs over the three) under
both engine backends, digests each outcome and, for each ⋢ verdict, the
replayed multiplicities of both queries on its bag, and asserts that both
backends agree.

``$BENCH_E22_BASELINE=PATH`` names a second checkout (for example a
``git archive`` of the parent commit).  Each tree runs in its own
interpreter on its own ``src``, the trees alternating round by round; the
bench asserts that both report the same digests, evaluation answers and
refuter outcomes, and the record keeps both trees' times.
``BENCH_SMOKE=1`` replays e2ebench's tiny streams, the smallest evaluation
instance and the smallest refuter runs instead (a CI smoke run; it
overwrites the committed record).

Run standalone (``PYTHONPATH=src python benchmarks/bench_e22_replay.py``)
or through pytest with the bench collection options.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_e21_plan_templates import _digest, _evaluation_cases  # noqa: E402
from record import write_record  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent

ROUNDS = 5
EVAL_REPEATS = 3
WORKLOADS = ("mixed", "warm")
DIGEST_WORKLOADS = ("mixed", "wide", "warm")
BACKENDS = ("interned", "naive")
PHASES = ("verify_ms", "factors_ms", "engine_ms", "skeletons_ms", "weights_ms")


def _refuter_cases(tiny: bool) -> dict:
    """Name -> a call running one refuter (E9's pairs, without an early violation)."""
    from repro.baselines.refuters import bounded_bag_refuter, random_bag_refuter
    from repro.queries.parser import parse_cq
    from repro.workloads.paper_examples import section2_q1, section2_q2

    contained = (section2_q1(), section2_q2())
    # Contained (the containing query's exponents are larger, and its
    # existential atoms map where the containee's do), so the search runs out.
    star = (
        parse_cq("q1(x, y) <- R(x, y), S(y, x), T(x, x), R(y, y)"),
        parse_cq("q2(x, y) <- R^2(x, y), S(y, x), T(x, z), R(y, w)"),
    )
    cases = {"bounded_section2_b8": lambda: bounded_bag_refuter(*contained, 8, all_probes=True)}
    if tiny:
        return cases
    cases["bounded_star_b6"] = lambda: bounded_bag_refuter(*star, 6)
    cases["random_section2_t2000"] = lambda: random_bag_refuter(*contained, 2000, 6, 0)
    return cases


def _worker(tiny: bool, digests: bool) -> dict:
    """Run inside one tree's interpreter: replay phases per workload, evaluation, refuters, digests."""
    sys.path.insert(0, str(REPO_ROOT / "e2ebench"))
    import pools
    from repro import Session
    from repro.core.certificates import ContainmentCounterexample
    from repro.engine import backends, batch
    from repro.evaluation.bag_evaluation import bag_multiplicity

    seconds = dict.fromkeys(("verify", "factors", "engine", "init", "weights"), 0.0)
    counts = {"replays": 0, "engine_calls": 0}
    replaying = [False]
    active = set()

    def timed(slot, function):
        def wrapper(*args, **kwargs):
            # Only the outermost timed call of a slot counts (nested calls
            # such as ``multiplicity`` → ``multiplicity_at`` would double it).
            if not replaying[0] or slot in active:
                return function(*args, **kwargs)
            active.add(slot)
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                seconds[slot] += time.perf_counter() - started
                active.discard(slot)

        return wrapper

    def timed_iterate(function):
        def wrapper(*args, **kwargs):
            if not replaying[0]:
                yield from function(*args, **kwargs)
                return
            counts["engine_calls"] += 1
            started = time.perf_counter()
            solutions = function(*args, **kwargs)
            seconds["engine"] += time.perf_counter() - started
            while True:
                started = time.perf_counter()
                try:
                    solution = next(solutions)
                except StopIteration:
                    seconds["engine"] += time.perf_counter() - started
                    return
                seconds["engine"] += time.perf_counter() - started
                yield solution

        return wrapper

    verify = ContainmentCounterexample.verify

    def timed_verify(self, *args, **kwargs):
        counts["replays"] += 1
        replaying[0] = True
        started = time.perf_counter()
        try:
            return verify(self, *args, **kwargs)
        finally:
            seconds["verify"] += time.perf_counter() - started
            replaying[0] = False

    evaluator = batch.BagBatchEvaluator
    patches = [
        (ContainmentCounterexample, "verify", timed_verify),
        (batch, "_body_factors", timed("factors", batch._body_factors)),
        (batch, "head_fixing", timed("factors", batch.head_fixing)),
        (evaluator, "__init__", timed("init", evaluator.__init__)),
        (evaluator, "multiplicity", timed("weights", evaluator.multiplicity)),
        (backends.InternedBackend, "iterate", timed_iterate(backends.InternedBackend.iterate)),
        (backends.NaiveBackend, "iterate", timed_iterate(backends.NaiveBackend.iterate)),
    ]
    # Trees with a shared ``Support`` read each bag once per pair.
    if hasattr(batch, "Support"):
        patches += [
            (evaluator, "multiplicity_at", timed("weights", evaluator.multiplicity_at)),
            (batch.Support, "weights", timed("weights", batch.Support.weights)),
            (batch.Support, "__init__", timed("init", batch.Support.__init__)),
        ]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, value in patches:
        setattr(owner, name, value)

    result: dict = {"workloads": {}, "evaluate_ms": {}, "refuters_ms": {}}
    for name in WORKLOADS:
        workload = pools.build(name, 0, tiny=tiny)
        seconds.update(dict.fromkeys(seconds, 0.0))
        counts.update(dict.fromkeys(counts, 0))
        session = Session(memoize=workload.memoize)
        outcomes = []
        for item in workload.items:
            outcome = session.decide(item.request)
            outcomes.append(f"{item.key} {outcome.verdict!r} {outcome.certificate!r}")
        per_replay = 1000 / max(counts["replays"], 1)
        skeletons = seconds["init"] - seconds["factors"] - seconds["engine"]
        result["workloads"][name] = {
            "requests": len(workload.items),
            **counts,
            "outcomes": _digest(outcomes),
            "verify_ms": seconds["verify"] * per_replay,
            "factors_ms": seconds["factors"] * per_replay,
            "engine_ms": seconds["engine"] * per_replay,
            "skeletons_ms": skeletons * per_replay,
            "weights_ms": seconds["weights"] * per_replay,
        }
    for owner, name, value in originals:
        setattr(owner, name, value)

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

    refutations = {}
    for label, run in _refuter_cases(tiny).items():
        best = float("inf")
        for _ in range(EVAL_REPEATS):
            with Session().activate():
                started = time.perf_counter()
                refutation = run()
                best = min(best, time.perf_counter() - started)
        result["refuters_ms"][label] = best * 1000
        refutations[label] = f"{refutation.refuted} {refutation.bags_checked} {refutation.counterexample!r}"
    result["refutations"] = refutations

    if digests:
        result["digests"] = {}
        for name in DIGEST_WORKLOADS:
            pairs = {}
            for item in pools.build(name, 0, tiny=tiny).items:
                request = item.request
                pairs.setdefault(f"{request.containee}|{request.containing}", request)
            for backend in BACKENDS:
                decided, replayed = [], []
                session = Session(backend=backend, memoize=False)
                with session.activate():
                    for key, request in sorted(pairs.items()):
                        outcome = session.decide(request)
                        decided.append(f"{key} {outcome.verdict!r} {outcome.certificate!r}")
                        certificate = outcome.certificate
                        if isinstance(certificate, ContainmentCounterexample):
                            left, right = (
                                bag_multiplicity(query, certificate.bag, certificate.probe)
                                for query in (request.containee, request.containing)
                            )
                            replayed.append(f"{key} {left} {right}")
                result["digests"][f"{name}/{backend}"] = {
                    "pairs": len(decided),
                    "certificates": len(replayed),
                    "outcomes": _digest(decided),
                    "replays": _digest(replayed),
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


def bench_e22_replay() -> None:
    tiny = bool(os.environ.get("BENCH_SMOKE"))
    baseline = os.environ.get("BENCH_E22_BASELINE")
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
            "refutations": first["refutations"],
            "workloads": {},
            **{
                timing: {case: _median(run[timing][case] for run in rounds) for case in first[timing]}
                for timing in ("evaluate_ms", "refuters_ms")
            },
        }
        for other in rounds[1:]:
            assert (other["answers"], other["refutations"]) == (first["answers"], first["refutations"])
        for name, counted in first["workloads"].items():
            fixed = ("replays", "engine_calls", "outcomes")
            for other in rounds[1:]:
                again = other["workloads"][name]
                assert [again[key] for key in fixed] == [counted[key] for key in fixed], name
            medians = {
                phase: _median(run["workloads"][name][phase] for run in rounds) for phase in PHASES
            }
            results[label]["workloads"][name] = {**counted, **medians}

    change = results["change"]
    print(f"E22 — certificate replay on e2ebench's seed-0 streams{' (tiny)' if tiny else ''}")
    for name, counted in change["workloads"].items():
        row = (
            f"    {name:<6} requests {counted['requests']}, replays {counted['replays']}, "
            f"engine calls {counted['engine_calls']}, "
            + ", ".join(f"{phase} {counted[phase]}" for phase in PHASES)
        )
        if baseline:
            before = results["baseline"]["workloads"][name]
            row += f"\n           baseline engine calls {before['engine_calls']}, " + ", ".join(
                f"{phase} {before[phase]}" for phase in PHASES
            )
            assert (counted["outcomes"], counted["replays"]) == (
                before["outcomes"],
                before["replays"],
            ), f"{name}: outcomes differ"
        print(row)
    for timing, answers in (("evaluate_ms", "answers"), ("refuters_ms", "refutations")):
        for case, value in change[timing].items():
            row = f"    {timing[:-3]} {case:<22} {value} ms"
            if baseline:
                row += f" (baseline {results['baseline'][timing][case]} ms)"
                assert change[answers][case] == results["baseline"][answers][case], case
            print(row)
    for name in DIGEST_WORKLOADS:
        entries = [change["digests"][f"{name}/{backend}"] for backend in BACKENDS]
        assert all(entry == entries[0] for entry in entries), f"{name}: the backends disagree"
    for key, entry in change["digests"].items():
        same = ""
        if baseline:
            assert entry == results["baseline"]["digests"][key], f"{key}: digests differ"
            same = ", identical to the baseline"
        print(
            f"    {key:<15} {entry['pairs']} pairs, {entry['certificates']} certificates, "
            f"outcomes {entry['outcomes']}, replays {entry['replays']}{same}"
        )
    total = sum(entry["pairs"] for key, entry in change["digests"].items() if key.endswith(BACKENDS[0]))
    print(f"    {total} pairs in all, per backend")

    metrics = {
        f"{name}_{key}": counted[key]
        for name, counted in change["workloads"].items()
        for key in ("replays", "engine_calls", *PHASES)
    }
    metrics.update({f"evaluate_{case}_ms": value for case, value in change["evaluate_ms"].items()})
    metrics.update({f"refuter_{case}_ms": value for case, value in change["refuters_ms"].items()})
    payload: dict = {"source": "bench_e22_replay", "seed": 0, "tiny": tiny}
    payload["rounds"] = ROUNDS
    payload["results"] = results
    payload["metrics"] = metrics
    payload["thresholds"] = {}
    print(f"record written to {write_record('e22', payload)}")


if __name__ == "__main__":
    if "--worker" in sys.argv:
        print(json.dumps(_worker("--tiny" in sys.argv, "--digests" in sys.argv)))
    else:
        bench_e22_replay()
