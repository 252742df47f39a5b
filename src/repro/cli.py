"""Command line interface: ``bagcq`` / ``python -m repro``.

Sub-commands
------------
``decide``
    Decide bag containment of a projection-free CQ into a CQ and print the
    verdict, the Diophantine encoding and — for negative answers — the
    counterexample bag.  With ``--batch PATH`` every pair of a corpus file
    (as written by ``fuzz --save-corpus``) is decided instead of one inline
    pair, and ``--jobs N`` shards the batch across worker processes
    (deterministic request-order output, see ``repro.parallel``).

``set-decide``
    Decide classic set containment (Chandra–Merlin).

``evaluate``
    Evaluate a query under bag semantics on a bag instance given as
    ``R(a,b)=3`` fact/multiplicity pairs.

``encode``
    Print the monomial–polynomial inequality associated with a containment
    instance at the most-general probe tuple, without deciding it.

``compare``
    Compare two queries under both semantics in both directions and print
    the rewrite-safety verdict (``repro.core.spectrum``).

``fuzz``
    Run a differential fuzz campaign (``repro.verify``): generated and
    metamorphically-mutated pairs are pushed through every decision
    strategy, engine backend and Diophantine path; disagreements are
    shrunk to minimal reproducers.  ``--save-corpus`` persists the
    campaign for deterministic replay, ``--replay`` re-checks a corpus,
    ``--backends``/``--strategies`` restrict the differential axes, and
    ``--verify-plans`` soundness-verifies every compiled plan online
    (``repro.analysis``).

``chaos``
    Run a seeded fault-injection campaign (``repro.faults.chaos``): the
    request stream is decided once fault-free (the oracle) and once with
    injected persist failures, worker crashes/hangs and admission latency
    under a per-request deadline, then every outcome is checked to be
    correct-per-oracle or *explicitly* degraded — never silently wrong.

``lint``
    Run the repro-specific static checks (``repro.analysis.lint``) over
    source trees: the syntactic rules (determinism hazards in the
    fingerprint/serialisation paths, mutable defaults, process-global
    state, bare excepts), the flow-sensitive determinism-taint analyzer,
    and the persist-schema lock check (``repro.analysis.schema_lock``).
    ``--check`` is the quiet CI mode (a timing line goes to stderr);
    suppressions require a justification.  ``--rule NAME`` selects rules,
    ``--explain NAME`` prints a rule's full rationale, and
    ``--write-schema-lock`` regenerates ``persist-schema.lock`` after a
    deliberate ``SCHEMA_VERSION`` bump.

``profile``
    Run a named workload from :mod:`repro.workloads.scale` under
    ``cProfile`` and print the top cumulative hot spots — so perf work
    starts from measurements, not guesses.  ``--backend NAME`` profiles a
    specific engine backend (shorthand for the global ``--engine-backend``).

Queries are written in the datalog syntax of :mod:`repro.queries.parser`,
e.g. ``"q(x1,x2) <- R^2(x1,y1), P(x2,y1)"``.

Every command runs through one :class:`repro.session.Session` built for the
invocation: the global options pick its engine backend
(``--engine-backend``; the interned engine is the default) and
print its engine-cache statistics after the command (``--engine-stats``),
which is how the benchmarks A/B the backends.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.decision import strategy_names
from repro.engine import backend_names
from repro.exceptions import CliError, ReproError
from repro.queries.parser import parse_atom, parse_cq
from repro.queries.printer import format_answer_bag, format_bag_instance, format_query
from repro.relational.instances import BagInstance
from repro.session import ContainmentRequest, EvaluationRequest, Limits, MpiRequest, Session

__all__ = ["main", "build_parser"]


def _jobs_value(value: str) -> "int | str":
    """Parse a ``--jobs`` argument: a positive int or the literal ``auto``."""
    if value == "auto":
        return "auto"
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive int or 'auto', got {value!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError("jobs must be at least 1")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the ``bagcq`` command."""
    parser = argparse.ArgumentParser(
        prog="bagcq",
        description="Bag containment of projection-free conjunctive queries (PODS 2019 reproduction).",
    )
    parser.add_argument(
        "--engine-backend",
        choices=backend_names(),
        default="interned",
        help="homomorphism engine backend (default: interned)",
    )
    parser.add_argument(
        "--engine-stats",
        action="store_true",
        help="print engine cache statistics after the command",
    )
    parser.add_argument(
        "--deadline-ms",
        type=int,
        default=None,
        metavar="MS",
        help="per-request wall-clock budget; requests that exceed it return an "
        "honest degraded outcome instead of an answer (default: no deadline)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    decide = subparsers.add_parser("decide", help="decide bag containment q1 ⊑b q2")
    decide.add_argument(
        "containee", nargs="?", default=None, help="the projection-free containee query q1"
    )
    decide.add_argument("containing", nargs="?", default=None, help="the containing query q2")
    decide.add_argument(
        "--strategy",
        choices=strategy_names(),
        default="most-general",
        help="decision strategy",
    )
    decide.add_argument("--verbose", action="store_true", help="print the full encoding")
    decide.add_argument(
        "--batch",
        metavar="PATH",
        default=None,
        help="decide every pair of a corpus file (fuzz --save-corpus format) instead of one inline pair",
    )
    decide.add_argument(
        "--jobs",
        type=_jobs_value,
        default=1,
        help="worker processes for --batch (1 = inline; 'auto' = one per core; "
        "results stay in request order)",
    )
    decide.add_argument(
        "--persist",
        metavar="PATH",
        default=None,
        help="back the session cache with a disk store at PATH (plans and "
        "verdicts warm across runs; workers share the store)",
    )

    set_decide = subparsers.add_parser("set-decide", help="decide set containment q1 ⊑s q2")
    set_decide.add_argument("containee", help="the containee query q1")
    set_decide.add_argument("containing", help="the containing query q2")

    evaluate = subparsers.add_parser("evaluate", help="evaluate a query under bag semantics")
    evaluate.add_argument("query", help="the query to evaluate")
    evaluate.add_argument(
        "facts",
        nargs="+",
        help="facts with multiplicities, e.g. 'R(a,b)=3' (multiplicity defaults to 1)",
    )

    encode = subparsers.add_parser(
        "encode", help="print the MPI encoding at the most-general probe tuple"
    )
    encode.add_argument("containee", help="the projection-free containee query q1")
    encode.add_argument("containing", help="the containing query q2")

    compare_parser = subparsers.add_parser(
        "compare", help="compare two queries under set and bag semantics, both directions"
    )
    compare_parser.add_argument("left", help="the first query")
    compare_parser.add_argument("right", help="the second query")

    fuzz = subparsers.add_parser(
        "fuzz", help="run a differential fuzz campaign over all decision paths"
    )
    fuzz.add_argument("--cases", type=int, default=200, help="number of generated cases")
    fuzz.add_argument("--seed", type=int, default=0, help="campaign seed")
    fuzz.add_argument(
        "--jobs",
        type=_jobs_value,
        default=1,
        help="worker processes (1 = inline; 'auto' = one per core)",
    )
    fuzz.add_argument(
        "--strategies",
        default=",".join(strategy_names()),
        help="comma-separated decision strategies to differential-test "
        f"(default: {','.join(strategy_names())})",
    )
    fuzz.add_argument(
        "--backends",
        default=",".join(backend_names()),
        help="comma-separated engine backends to differential-test "
        f"(default: {','.join(backend_names())})",
    )
    fuzz.add_argument(
        "--mutation-rate",
        type=float,
        default=0.5,
        help="probability of applying a metamorphic mutation per case",
    )
    fuzz.add_argument(
        "--time-budget", type=float, default=None, help="stop after this many seconds"
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true", help="do not minimize failing pairs"
    )
    fuzz.add_argument(
        "--save-corpus", metavar="PATH", default=None, help="persist the campaign as a corpus"
    )
    fuzz.add_argument(
        "--replay", metavar="PATH", default=None, help="replay a saved corpus instead of fuzzing"
    )
    fuzz.add_argument(
        "--persist",
        metavar="PATH",
        default=None,
        help="back the session cache with a disk store at PATH "
        "(campaign and replay decisions warm across runs)",
    )
    fuzz.add_argument(
        "--verify-plans",
        action="store_true",
        help="soundness-verify every compiled plan during the campaign (repro.analysis)",
    )

    lint = subparsers.add_parser(
        "lint",
        help="run the repro-specific lint rules, the determinism-taint analyzer "
        "and the persist-schema lock check",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: the installed repro package)",
    )
    lint.add_argument(
        "--check",
        action="store_true",
        help="CI mode: print nothing on success, exit 1 on any finding",
    )
    lint.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this rule (repeatable)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="list the available rules and exit"
    )
    lint.add_argument(
        "--explain",
        metavar="NAME",
        default=None,
        help="print the full rationale of one rule and exit",
    )
    lint.add_argument(
        "--schema-lock",
        metavar="PATH",
        default="persist-schema.lock",
        help="location of the committed schema lock (default: ./persist-schema.lock)",
    )
    lint.add_argument(
        "--write-schema-lock",
        action="store_true",
        help="regenerate the schema lock from the running code and exit "
        "(commit the result alongside a SCHEMA_VERSION bump)",
    )

    cache = subparsers.add_parser(
        "cache", help="inspect or maintain a persistent cache store"
    )
    cache.add_argument(
        "action", choices=("info", "vacuum", "clear"), help="maintenance action"
    )
    cache.add_argument("path", help="the store file (as passed to --persist)")
    cache.add_argument(
        "--prune-age",
        type=float,
        default=None,
        metavar="DAYS",
        help="with vacuum: first drop entries not accessed in DAYS days",
    )
    cache.add_argument(
        "--prune-lru",
        type=int,
        default=None,
        metavar="N",
        help="with vacuum: first drop least-recently-accessed entries beyond N",
    )

    chaos = subparsers.add_parser(
        "chaos",
        help="run a seeded fault-injection campaign and check every outcome "
        "against a fault-free oracle",
    )
    chaos.add_argument("--cases", type=int, default=200, help="number of requests")
    chaos.add_argument("--seed", type=int, default=0, help="campaign seed")
    chaos.add_argument(
        "--schedule",
        choices=("persist", "worker", "deadline", "mixed"),
        default="mixed",
        help="which fault families to arm (default: mixed)",
    )
    chaos.add_argument(
        "--jobs", type=int, default=2, help="worker processes for the faulted run"
    )
    chaos.add_argument(
        "--chunk-size", type=int, default=4, help="requests per worker shard"
    )
    chaos.add_argument(
        "--task-timeout",
        type=float,
        default=30.0,
        help="seconds before a hung worker shard is recovered (default: 30)",
    )

    profile = subparsers.add_parser(
        "profile", help="profile a named scale workload under cProfile"
    )
    profile.add_argument(
        "workload",
        choices=("mixed", "acyclic", "chain", "star"),
        help="workload family from repro.workloads.scale",
    )
    profile.add_argument(
        "--backend",
        choices=backend_names(),
        default=None,
        help="engine backend to profile (overrides the global --engine-backend)",
    )
    profile.add_argument("--cases", type=int, default=100, help="number of pairs to decide")
    profile.add_argument("--seed", type=int, default=0, help="workload seed")
    profile.add_argument(
        "--top", type=int, default=20, help="how many cumulative hot spots to print"
    )
    profile.add_argument(
        "--sort",
        choices=("cumulative", "tottime"),
        default="cumulative",
        help="pstats sort order (default: cumulative)",
    )

    return parser


def _parse_bag(fact_specs: Sequence[str]) -> BagInstance:
    counts = {}
    for spec in fact_specs:
        if "=" in spec:
            atom_text, _, multiplicity_text = spec.rpartition("=")
            try:
                multiplicity = int(multiplicity_text)
            except ValueError as exc:
                raise CliError(f"invalid multiplicity in {spec!r}") from exc
        else:
            atom_text, multiplicity = spec, 1
        atom, _ = parse_atom(atom_text)
        if not atom.is_ground:
            raise CliError(f"facts must be ground, got {atom}")
        counts[atom] = counts.get(atom, 0) + multiplicity
    return BagInstance(counts)


def _run_decide(args: argparse.Namespace, session: Session) -> int:
    if args.batch is not None:
        return _run_decide_batch(args, session)
    if args.containee is None or args.containing is None:
        raise CliError("decide needs two inline queries (or --batch PATH)")
    containee = parse_cq(args.containee)
    containing = parse_cq(args.containing)
    outcome = session.decide(containee, containing, strategy=args.strategy)
    result = outcome.value
    print(result.explain())
    if args.verbose and result.encodings:
        print()
        print(result.encodings[-1].describe())
    return 0 if outcome.verdict else 1


def _run_decide_batch(args: argparse.Namespace, session: Session) -> int:
    if args.containee is not None or args.containing is not None:
        raise CliError("--batch replaces the inline queries; pass either, not both")
    from repro.session import ContainmentRequest
    from repro.verify.corpus import load_corpus

    from repro.parallel import resolve_jobs

    entries = load_corpus(args.batch)
    requests = [
        ContainmentRequest(entry.containee, entry.containing, strategy=args.strategy)
        for entry in entries
    ]
    # Resolve up front (rather than letting session.batch do it) so the
    # summary line reports what actually ran: on a single-core box
    # --jobs auto falls back to the serial path, and the committed record
    # should say jobs=1, not echo the flag.
    jobs = resolve_jobs(args.jobs)
    errors = 0
    contained = 0
    degraded = 0
    outcomes = session.batch(requests, capture_errors=True, jobs=jobs)
    for entry, outcome in zip(entries, outcomes):
        if outcome.degraded is not None:
            degraded += 1
            detail = f": {outcome.error}" if outcome.error is not None else ""
            print(f"{entry.case_id}: degraded ({outcome.degraded}){detail}")
            continue
        if outcome.error is not None:
            errors += 1
            print(f"{entry.case_id}: error {outcome.error}")
            continue
        verdict = "contained" if outcome.verdict else "not contained"
        certified = " (certified)" if outcome.certificate is not None else ""
        contained += bool(outcome.verdict)
        print(f"{entry.case_id}: {verdict}{certified} [{outcome.elapsed * 1000:.1f}ms]")
    # The zero-degraded summary stays byte-identical to earlier releases:
    # the warm-start CI job diffs cold vs warm stdout.
    undecided = len(requests) - contained - errors - degraded
    degraded_part = f"{degraded} degraded, " if degraded else ""
    print(
        f"batch {args.batch}: {len(requests)} pairs, {contained} contained, "
        f"{undecided} not contained, {degraded_part}{errors} errors "
        f"[jobs={jobs}]"
    )
    return 0 if errors == 0 else 1


def _run_set_decide(args: argparse.Namespace, session: Session) -> int:
    containee = parse_cq(args.containee)
    containing = parse_cq(args.containing)
    outcome = session.decide(containee, containing, semantics="set")
    print(outcome.value.explain())
    return 0 if outcome.verdict else 1


def _run_evaluate(args: argparse.Namespace, session: Session) -> int:
    query = parse_cq(args.query)
    bag = _parse_bag(args.facts)
    answers = session.evaluate(EvaluationRequest(query, bag)).value
    print(f"query: {format_query(query)}")
    print(f"bag:   {format_bag_instance(bag)}")
    print(f"answer: {format_answer_bag(answers.items())}")
    return 0


def _run_encode(args: argparse.Namespace, session: Session) -> int:
    containee = parse_cq(args.containee)
    containing = parse_cq(args.containing)
    encoding = session.mpi(MpiRequest(containee, containing)).value
    print(encoding.describe())
    return 0


def _run_compare(args: argparse.Namespace, session: Session) -> int:
    outcome = session.containment_spectrum(parse_cq(args.left), parse_cq(args.right))
    print(outcome.value.describe())
    return 0 if outcome.verdict else 1


def _run_fuzz(args: argparse.Namespace, session: Session) -> int:
    from repro.verify.corpus import replay_corpus, save_corpus
    from repro.verify.oracles import OracleConfig
    from repro.verify.runner import CampaignConfig, campaign_corpus

    strategies = tuple(name.strip() for name in args.strategies.split(",") if name.strip())
    backends = tuple(name.strip() for name in args.backends.split(",") if name.strip())

    if args.replay is not None:
        if args.save_corpus is not None:
            raise CliError("--save-corpus cannot be combined with --replay")
        failures = replay_corpus(args.replay, OracleConfig(strategies=strategies, backends=backends))
        if not failures:
            print(f"corpus {args.replay}: all entries replay clean")
            return 0
        print(f"corpus {args.replay}: {len(failures)} entries FAILED")
        for entry, report in failures:
            print(f"  {entry.case_id} ({entry.origin}):")
            for discrepancy in report.discrepancies:
                print(f"    {discrepancy.describe()}")
        return 1

    from repro.parallel import resolve_jobs

    config = CampaignConfig(
        cases=args.cases,
        seed=args.seed,
        jobs=resolve_jobs(args.jobs),
        strategies=strategies,
        backends=backends,
        mutation_rate=args.mutation_rate,
        shrink_failures=not args.no_shrink,
        time_budget=args.time_budget,
        debug_verify_plans=args.verify_plans,
        deadline_ms=args.deadline_ms,
    )
    report = session.fuzz(config=config).value
    print(report.describe())
    if args.save_corpus is not None:
        path = save_corpus(campaign_corpus(report), args.save_corpus)
        print(f"corpus saved to {path} ({report.cases_run} entries)")
    return 0 if report.ok else 1


def _run_lint(args: argparse.Namespace, session: Session) -> int:
    """Run the static checks (``lint [--check] [--rule NAME] [PATHS]``).

    The per-file rules run over *PATHS*; the ``persist-schema`` rule checks
    the committed lock against the running code once.
    """
    from pathlib import Path

    from repro.analysis.lint import default_rules, lint_paths_timed
    from repro.analysis.rules import PERSIST_SCHEMA
    from repro.analysis.schema_lock import check_lock, write_lock

    catalogue = default_rules() + (PERSIST_SCHEMA,)
    if args.list_rules:
        for rule in catalogue:
            scope = f" [{', '.join(rule.scope)}]" if rule.scope else ""
            print(f"{rule.name:<24} {rule.summary}{scope}")
        return 0
    if args.explain is not None:
        matches = [rule for rule in catalogue if rule.name == args.explain]
        if not matches:
            raise CliError(
                f"unknown rule {args.explain!r}; known rules: "
                f"{', '.join(sorted(rule.name for rule in catalogue))}"
            )
        rule = matches[0]
        print(f"{rule.name}: {rule.summary}")
        if rule.scope:
            print(f"scope: {', '.join(rule.scope)}")
        print()
        print(rule.explanation or "(no extended rationale recorded)")
        return 0
    if args.write_schema_lock:
        fingerprint = write_lock(args.schema_lock)
        print(
            f"schema lock written to {args.schema_lock} "
            f"(SCHEMA_VERSION {fingerprint.schema_version}, "
            f"{len(fingerprint.types)} types, digest {fingerprint.digest[:16]}…)"
        )
        return 0
    selected = catalogue
    if args.rule:
        wanted = set(args.rule)
        known = {rule.name for rule in catalogue}
        unknown = wanted - known
        if unknown:
            raise CliError(
                f"unknown lint rule(s) {', '.join(sorted(unknown))}; "
                f"known rules: {', '.join(sorted(known))}"
            )
        selected = tuple(rule for rule in catalogue if rule.name in wanted)
    paths = [Path(path) for path in args.paths] if args.paths else None
    findings, stats = lint_paths_timed(paths, [rule for rule in selected if rule != PERSIST_SCHEMA])
    for finding in findings:
        print(finding.describe())
    lock_checked = PERSIST_SCHEMA in selected
    problems = check_lock(args.schema_lock) if lock_checked else []
    for problem in problems:
        print(f"persist-schema: {problem}")
    failed = bool(findings) or bool(problems)
    if not failed and not args.check:
        print("no lint findings" + ("; persist-schema lock matches" if lock_checked else ""))
    # Timing goes to stderr so --check stays silent on stdout for CI logs.
    print(stats.describe(), file=sys.stderr if args.check else sys.stdout)
    return 1 if failed else 0


def _run_cache(args: argparse.Namespace, session: Session) -> int:
    """Maintain a persistent store (``cache info|vacuum|clear PATH``)."""
    import os

    from repro.engine.persist import PersistentCache

    if not os.path.exists(args.path):
        # Clean diagnostic (no traceback) for every action: info on a
        # missing path would otherwise create an empty store just to
        # describe it.
        raise CliError(f"no persistent store at {args.path}")
    if args.action != "vacuum" and (
        args.prune_age is not None or args.prune_lru is not None
    ):
        raise CliError("--prune-age/--prune-lru only apply to the vacuum action")
    store = PersistentCache(args.path)
    try:
        if args.action == "info":
            info = store.info()
            print(f"store:   {info['path']} ({info['status']})")
            print(f"size:    {info['file_bytes']} bytes")
            print(f"entries: {info['entries']}")
            for layer, count in sorted(info["layers"].items()):
                print(f"  {layer:<8} {count}")
            print(f"schemas:  {', '.join(str(s) for s in info['schemas']) or '-'}")
            print(f"backends: {', '.join(info['backends']) or '-'}")
            breaker = info["breaker"]
            print(
                f"breaker:  {breaker['state']} "
                f"({breaker['opens']} opens, {breaker['half_opens']} half-opens, "
                f"{breaker['closes']} closes)"
            )
            if info["status"] != "ok":
                print(
                    f"store is {info['status']}: the file is missing, locked or "
                    "corrupt; sessions fall back to in-memory caching",
                    file=sys.stderr,
                )
            return 0 if info["status"] == "ok" else 1
        if args.action == "vacuum":
            pruned = 0
            if args.prune_age is not None:
                pruned += store.prune_age(args.prune_age)
            if args.prune_lru is not None:
                pruned += store.prune_lru(args.prune_lru)
            ok = store.vacuum()
            summary = f"{pruned} entries pruned, " if pruned else ""
            print(f"store {args.path}: {summary}{'vacuumed' if ok else 'vacuum FAILED'}")
            return 0 if ok else 1
        dropped = store.clear()
        store.vacuum()
        print(f"store {args.path}: {dropped} entries cleared")
        return 0
    finally:
        store.close()


def _run_chaos(args: argparse.Namespace, session: Session) -> int:
    """Run a fault-injection campaign (``chaos [--schedule ...]``).

    The campaign builds its own sessions (a fault-free oracle and a faulted
    run over a scratch store), so the invocation session is unused.
    """
    from repro.faults.chaos import ChaosConfig, run_chaos

    config = ChaosConfig(
        cases=args.cases,
        seed=args.seed,
        schedule=args.schedule,
        jobs=args.jobs,
        backend=args.engine_backend,
        chunk_size=args.chunk_size,
        task_timeout=args.task_timeout,
        deadline_ms=args.deadline_ms,
    )
    report = run_chaos(config)
    print(report.describe())
    return 0 if report.ok else 1


def _profile_requests(args: argparse.Namespace) -> list[ContainmentRequest]:
    from repro.workloads import scale

    if args.workload == "mixed":
        return scale.mixed_requests(args.cases, seed=args.seed, verify_certificates=False)
    families = {
        "acyclic": scale.acyclic_pair_family,
        "chain": scale.chain_pair_family,
        "star": scale.star_pair_family,
    }
    pairs = families[args.workload](args.cases, seed=args.seed)
    return [
        ContainmentRequest(containee, containing, verify_certificates=False)
        for containee, containing in pairs
    ]


def _run_profile(args: argparse.Namespace, session: Session) -> int:
    """Decide a scale workload under cProfile and print the hot spots.

    The requests run through the invocation's session (so
    ``--engine-backend`` selects what is being profiled) with errors
    captured — a handful of random pairs exceeding the exact solver's row
    cap must not abort the measurement.
    """
    import cProfile
    import io
    import pstats
    import time as _time

    requests = _profile_requests(args)
    profiler = cProfile.Profile()
    started = _time.perf_counter()
    profiler.enable()
    outcomes = list(session.batch(requests, capture_errors=True))
    profiler.disable()
    elapsed = _time.perf_counter() - started

    errors = sum(1 for outcome in outcomes if outcome.error is not None)
    contained = sum(1 for outcome in outcomes if outcome.verdict)
    print(
        f"profiled {len(outcomes)} '{args.workload}' decisions on the "
        f"{session.backend_name} backend in {elapsed:.2f}s "
        f"({contained} contained, {errors} errors)"
    )
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    print(stream.getvalue().rstrip())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by the ``bagcq`` console script and ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "decide": _run_decide,
        "set-decide": _run_set_decide,
        "evaluate": _run_evaluate,
        "encode": _run_encode,
        "compare": _run_compare,
        "fuzz": _run_fuzz,
        "lint": _run_lint,
        "cache": _run_cache,
        "chaos": _run_chaos,
        "profile": _run_profile,
    }
    backend_name = getattr(args, "backend", None) or args.engine_backend
    limits = Limits(deadline_ms=args.deadline_ms) if args.deadline_ms else None
    session = Session(
        backend=backend_name,
        name="cli",
        persist_path=getattr(args, "persist", None),
        limits=limits,
    )
    try:
        with session.activate():
            return handlers[args.command](args, session)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if session.persistent is not None:
            # Stats go to stderr so stdout stays byte-comparable between
            # cold and warm runs (the CI smoke job diffs it).
            print(f"persist  {session.persistent.stats.describe()}", file=sys.stderr)
        session.close()
        if args.engine_stats:
            print("engine cache statistics (session cache, this command only):")
            if backend_name == "naive":
                print("  note: this run used the naive backend, which bypasses the cache")
            for line in session.cache.describe().splitlines():
                print(f"  {line}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
