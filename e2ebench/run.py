"""End-to-end decision benchmark: one closed-loop client driving ``Session.decide``.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload {mixed,wide,warm,all} --seed N --seconds S --trace {0,1}

One process, no threads: each request is sent after the previous one
returns.  A *pass* is the workload's request list (at least 100 requests)
answered by a fresh ``Session`` (for ``warm``, a fresh copy of the
pre-filled store); passes repeat until ``--seconds`` of passes have been
measured.  Each request is unpickled just before it is sent, so it is an
object graph of its own, as a service holds a request it has just parsed:
a repeated request pays for hashing and equality.

The host's CPU speed drifts by up to 2x over seconds to minutes, and a
whole run can fall inside a slow stretch.  So every ``PROBE_INTERVAL``
seconds, between two requests, the client times a fixed pure-Python probe
(``calibrate.py``), and each request's latency is scaled to the reference
host: multiplied by the probe's reference time over its mean time either
side of the request (see ``scales``).  Every time metric is in seconds of
that reference host.  Every pass does the same work, so a request's
latency is the median of its scaled repeats at its position, and p50 and
p90 are taken over the positions of one pass.  Throughput is the median
over the passes of requests that passed the check per second of the pass's
summed scaled latencies: the client's own unpickling and bookkeeping
between requests is left out.  ``setup_s`` is scaled the same way, by
probes either side of each cold start.

Outputs are checked after each pass, outside the timed region, by a child
process (see ``verdicts.py``); warm's earlier session also runs in a child
(``prefill.py``).  So ``peak_rss_mb``, read right after the last measured
pass, covers the measured passes and the benchmark's own request list only.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones (see ``spans.py``), plus the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import dataclasses
import functools
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: stores, and the traced pass's spans.
WORK = ROOT / ".e2ebench"

SETUP_REPS = 7
#: Seconds of client time between two host-speed probes in a pass.
PROBE_INTERVAL = 0.05

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    """One measured pass: per-request latencies and the pass's own counters."""

    #: Per request, seconds as timed on this host.
    latencies: list[float]
    #: ``(index of the next request, probe seconds)``, first and last included.
    probes: list[tuple[int, float]]
    passed: int
    cache: dict
    persist: object | None
    recorder: object | None = None

    @property
    def seconds(self) -> float:
        """The summed latencies: the pass's wall time less the client's own work."""
        return sum(self.latencies)

    @functools.cached_property
    def scaled(self) -> list[float]:
        """Per request, seconds on the reference host."""
        return [latency * scale for latency, scale in zip(self.latencies, scales(self.probes))]

    @property
    def rate(self) -> float:
        """Requests that passed the output check per reference-host second of the pass."""
        return self.passed / sum(self.scaled)


def request_blob(request) -> bytes:
    """*request* pickled with no cached hash: every load is a new object graph."""
    from repro.queries.cq import ConjunctiveQuery

    def rebuilt(query):
        return ConjunctiveQuery(query.head, query.body, query.name)

    fresh = dataclasses.replace(
        request, containee=rebuilt(request.containee), containing=rebuilt(request.containing)
    )
    return pickle.dumps(fresh)


class Bench:
    """One workload at one seed: inputs, pre-filled store, passes and checks."""

    def __init__(self, name: str, seed: int, tiny: bool = False) -> None:
        import pools

        self.name = name
        self.seed = seed
        self.tiny = tiny
        self.workload = pools.build(name, seed, tiny=tiny)
        blobs: dict[int, bytes] = {}
        for item in self.workload.items:
            if id(item.request) not in blobs:
                blobs[id(item.request)] = request_blob(item.request)
        #: One pickled request per position; warm's repeats share a blob.
        self._stream = [blobs[id(item.request)] for item in self.workload.items]
        self.workdir = WORK / f"{name}-{seed}-{os.getpid()}"
        self._stores = 0
        self.prefill_store: Path | None = None
        self.checker = None
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0

    # ------------------------------------------------------------------ #
    # Set-up
    # ------------------------------------------------------------------ #
    def prepare(self) -> None:
        """Start the checker; make the work directory and, for warm, the pre-filled store."""
        import verdicts

        self.checker = verdicts.CheckerProcess(self.name, self.seed, tiny=self.tiny)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        if not self.workload.prefill:
            return
        self.prefill_store = self.workdir / "prefill.sqlite"
        command = [sys.executable, str(HERE / "prefill.py"), str(self.prefill_store), str(self.seed)]
        subprocess.run(command + (["--tiny"] if self.tiny else []), check=True, timeout=600, cwd=ROOT)

    def _store_copy(self) -> Path:
        assert self.prefill_store is not None
        self._stores += 1
        target = self.workdir / f"store-{self._stores}.sqlite"
        for suffix in ("", "-wal", "-shm"):
            source = Path(f"{self.prefill_store}{suffix}")
            if source.exists():
                shutil.copyfile(source, f"{target}{suffix}")
        return target

    def setup_seconds(self) -> list[float]:
        """Wall time of fresh interpreters importing repro and building the Session.

        Each sample is scaled to the reference host by probes either side of it.
        """
        command = [sys.executable, str(HERE / "setup_probe.py"), self.name]
        if self.prefill_store is not None:
            command.append(str(self._store_copy()))
        samples = []
        for _ in range(1 if self.tiny else SETUP_REPS):
            before = calibrate.probe_seconds()
            started = time.perf_counter()
            subprocess.run(command, check=True, timeout=120, cwd=ROOT)
            elapsed = time.perf_counter() - started
            samples.append(elapsed * scales([(0, before), (1, calibrate.probe_seconds())])[0])
        return samples

    def cleanup(self) -> None:
        if self.checker is not None:
            self.checker.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # Passes
    # ------------------------------------------------------------------ #
    def session(self):
        from repro import Session

        if self.prefill_store is not None:
            return Session(persist_path=self._store_copy(), name="e2ebench")
        return Session(memoize=self.workload.memoize, name="e2ebench")

    def run_pass(self, recorder=None, limit: int | None = None) -> Pass:
        """Answer the pass (or its first *limit* requests) with a fresh session.

        Each request is unpickled just before it is sent, so no query object
        carries a cached hash or atom tuple over from another position or
        pass.  A host-speed probe runs before the first request, after the
        last, and between two requests once ``PROBE_INTERVAL`` has passed.
        Only the answers the check needs are kept, not the outcomes and
        their requests.
        """
        import spans
        from verdicts import Answer

        session = self.session()
        answers: list[Answer] = []
        latencies: list[float] = []
        probes: list[tuple[int, float]] = []
        clock = time.perf_counter
        loads = pickle.loads
        due = 0.0
        with spans.installed(recorder) if recorder is not None else nullcontext():
            for index, blob in enumerate(self._stream[:limit]):
                if clock() >= due:
                    probes.append((index, calibrate.probe_seconds()))
                    due = clock() + PROBE_INTERVAL
                request = loads(blob)
                if recorder is not None:
                    recorder.request = index
                sent = clock()
                try:
                    outcome = session.decide(request)
                except Exception as error:  # noqa: BLE001 - counted as failed
                    outcome = error
                latencies.append(clock() - sent)
                answers.append(Answer.of(outcome))
        probes.append((len(latencies), calibrate.probe_seconds()))
        cache = session.cache.snapshot()
        persist = session.persistent.stats if session.persistent is not None else None
        session.close()
        if session.persist_path is not None:
            for leftover in self.workdir.glob(f"{Path(session.persist_path).name}*"):
                leftover.unlink()

        passed, failures = self.checker.check_pass(answers)
        self.failures.extend(failures)
        return Pass(latencies, probes, passed, cache, persist, recorder)

    def measure(self, seconds: float, traced: bool) -> tuple[list[Pass], list[Pass]]:
        """Untraced passes (and, when *traced*, alternating traced ones)."""
        import spans

        self.run_pass(limit=max(5, len(self.workload.items) // 10))  # warm-up, unmeasured
        plain: list[Pass] = []
        with_spans: list[Pass] = []
        while True:
            plain.append(self.run_pass())
            if traced:
                with_spans.append(self.run_pass(recorder=spans.Recorder()))
            if sum(p.seconds for p in plain + with_spans) >= seconds:
                break
        # Read before anything else runs in this process.
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return plain, with_spans


def scales(probes: list[tuple[int, float]]) -> list[float]:
    """Per request, the probe's reference time over its mean time either side of the request.

    *probes* lists ``(index of the next request, probe seconds)`` in order;
    the first is taken before request 0 and the last after the last request.
    """
    out: list[float] = []
    for (start, before), (end, after) in zip(probes, probes[1:]):
        out.extend([calibrate.REFERENCE_SECONDS / ((before + after) / 2.0)] * (end - start))
    return out


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def position_latencies(passes: list[Pass]) -> list[float]:
    """Per position of a pass, the median of its scaled repeats in the run.

    Every pass sends the same requests in the same order, so the repeats at
    one position are the same work; their median is robust to a probe that
    misread the host's speed around one of them.
    """
    return [statistics.median(repeats) for repeats in zip(*(p.scaled for p in passes))]


def throughput(passes: list[Pass]) -> float:
    """The median pass rate: passed requests per reference-host second of the pass."""
    return statistics.median(p.rate for p in passes)


def end_to_end(plain: list[Pass], setup: list[float], peak_rss_mb: float) -> dict[str, float]:
    latencies = position_latencies(plain)
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
    return {
        "throughput_rps": throughput(plain),
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_p90_ms": deciles[8] * 1000.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }


def _hit_rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(plain: list[Pass], traced: list[Pass]) -> tuple[dict[str, tuple[float, str]], dict]:
    """Per-layer metrics ``(value, unit)`` and each layer's share of traced time."""
    import spans

    merged, root_seconds = spans.totals(p.recorder for p in traced)
    requests = sum(len(p.latencies) for p in traced)
    request_seconds = sum(sum(p.latencies) for p in traced)
    # Counts come from the first traced pass alone: every pass does the
    # same work, so they repeat exactly for a given seed.
    first, _ = spans.totals([traced[0].recorder])

    def self_ms(*names: str) -> float:
        return sum(merged[n].self_seconds for n in names if n in merged) / requests * 1000.0

    def count(name: str) -> int:
        return first[name].count if name in first else 0

    cache = traced[0].cache
    persist = traced[0].persist
    fm = merged.get("linalg.fm", spans.SpanTotals())
    metrics: dict[str, tuple[float, str]] = {
        "session.self_ms": (self_ms("session"), "ms"),
        "cache.results.hit_rate": (_hit_rate(*cache["results"][:2]), "ratio"),
        "cache.plans.hit_rate": (_hit_rate(*cache["plans"][:2]), "ratio"),
        "cache.indexes.hit_rate": (_hit_rate(*cache["indexes"][:2]), "ratio"),
        "persist.load_ms": (self_ms("persist.load"), "ms"),
        "persist.store_ms": (self_ms("persist.store"), "ms"),
        "persist.hit_rate": (persist.hit_rate if persist else 0.0, "ratio"),
        "persist.hits": (persist.hits if persist else 0, "count"),
        "persist.misses": (persist.misses if persist else 0, "count"),
        "persist.stores": (persist.stores if persist else 0, "count"),
        "persist.errors": (persist.errors if persist else 0, "count"),
        "persist.retries": (persist.retries if persist else 0, "count"),
        "ground.self_ms": (self_ms("ground"), "ms"),
        "engine.self_ms": (self_ms("engine"), "ms"),
        "engine.mappings": (count("engine"), "count"),
        "encoding.self_ms": (self_ms("encoding"), "ms"),
        "diophantine.system_ms": (self_ms("diophantine.system"), "ms"),
        "diophantine.system_rows": (count("diophantine.system"), "count"),
        "diophantine.solver_ms": (self_ms("diophantine.solver"), "ms"),
        "diophantine.witness_ms": (self_ms("diophantine.witness"), "ms"),
        "linalg.fm_ms": (self_ms("linalg.fm"), "ms"),
        "linalg.lp_ms": (self_ms("linalg.lp"), "ms"),
        "linalg.fm_overflow_frac": (fm.errors / fm.calls if fm.calls else 0.0, "ratio"),
        "certificates.build_ms": (self_ms("certificates.build"), "ms"),
        "certificates.verify_ms": (self_ms("certificates.verify"), "ms"),
        "certificates.count": (count("certificates.build"), "count"),
        "trace.unattributed_frac": ((request_seconds - root_seconds) / request_seconds, "ratio"),
        "trace.overhead_frac": (
            1.0 - throughput(traced) / throughput(plain),
            "ratio",
        ),
    }
    shares = {
        layer: sum(merged[n].self_seconds for n in names if n in merged) / request_seconds
        for layer, names in spans.LAYERS.items()
    }
    return metrics, shares


# ---------------------------------------------------------------------- #
# One workload
# ---------------------------------------------------------------------- #
def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns ``(result object, report lines)``."""
    import spans

    bench = Bench(name, seed, tiny=tiny)
    lines = [
        f"e2ebench workload={name} seed={seed} trace={int(trace)}: one closed-loop client, "
        f"{len(bench.workload.items)} requests per pass, memoize={bench.workload.memoize}",
        f"  request stream digest {bench.workload.digest()}",
    ]
    if bench.workload.prefill:
        lines.append(
            f"  pre-fill digest {bench.workload.prefill_digest()} "
            f"({len(bench.workload.prefill)} requests stored before the restart)"
        )
    try:
        bench.prepare()
        setup = [] if trace else bench.setup_seconds()
        plain, traced = bench.measure(seconds, traced=trace)
        if trace:
            WORK.mkdir(exist_ok=True)
            traced[0].recorder.write(WORK / f"spans-{name}-{seed}.jsonl")
    finally:
        bench.cleanup()

    everything = plain + traced
    attempted = sum(len(p.latencies) for p in everything)
    failed = attempted - sum(p.passed for p in everything)
    problems = list(bench.failures[:5])
    missing = spans.missing_spans(traced[0].recorder, name) if trace else []
    if missing:
        problems.append(f"tracer: required spans never fired: {missing}")
    rates = sorted(p.rate for p in plain)
    probe_ms = sorted(seconds * 1000.0 for p in plain for _, seconds in p.probes)
    lines.append(
        f"  {len(plain)} untraced passes of {len(plain[0].latencies)} requests"
        + (f", {len(traced)} traced passes" if trace else "")
        + "; a request's latency is the median of its scaled untraced repeats"
    )
    lines.append(
        f"  untraced pass rates (1/s): slowest {rates[0]:.6g}, median {statistics.median(rates):.6g}, "
        f"fastest {rates[-1]:.6g}"
    )
    lines.append(
        f"  host-speed probe (ms, reference {calibrate.REFERENCE_SECONDS * 1000.0:.3g}): "
        f"fastest {probe_ms[0]:.4g}, median {statistics.median(probe_ms):.4g}, "
        f"slowest {probe_ms[-1]:.4g}, {len(probe_ms)} probes"
    )
    lines.append(f"  failed_frac {failed / attempted:.4f} ({failed} of {attempted} requests)")

    if trace:
        layer_metrics, shares = per_layer(plain, traced)
        unattributed = layer_metrics["trace.unattributed_frac"][0]
        if unattributed > 0.05:
            problems.append(f"tracer: unattributed share {unattributed:.1%} exceeds 5%")
        metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in layer_metrics.items()}
        lines.append("  share of traced request time by layer (self time):")
        for layer, share in sorted(shares.items(), key=lambda item: -item[1]):
            lines.append(f"    {layer:<28} {share:7.1%}")
    else:
        values = end_to_end(plain, setup, bench.peak_rss_mb)
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END_UNITS.items()}

    for key, metric in metrics.items():
        lines.append(f"  {key:<28} {metric['value']:>14.6g} {metric['unit']}")
    for problem in problems:
        lines.append(f"  FAILED: {problem}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is its own); one summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("mixed", "wide", "warm"):
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=600)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("mixed", "wide", "warm", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
