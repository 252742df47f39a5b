"""E18 — cold start: what a fresh interpreter pays before its first answer.

One cold ``repro decide`` is half of the north star's unit of performance.
This bench times five commands from process start to exit, each in fresh
interpreters, and counts the ``repro`` modules each one has loaded:

* ``bare`` — ``python -c pass``, the interpreter alone;
* ``import`` — ``import repro``;
* ``session`` — the same plus ``repro.Session(memoize=False)``: the work
  of e2ebench's setup probe for ``mixed`` and ``wide``, so its time is
  ``setup_s`` before that benchmark's scaling to the reference host;
* ``decide`` — the same plus one ``decide`` of the trivial pair below;
* ``cli_decide`` — ``python -m repro decide`` of that pair.

Each measured tree's ``src/repro`` is copied to a fresh directory without
bytecode and run with ``PYTHONDONTWRITEBYTECODE=1``, so every start
compiles the ``repro`` modules it imports, as a fresh checkout does.  Each
command runs in ``SAMPLES`` fresh interpreters per tree; the record keeps
the median and the quartiles of those start times.

``$BENCH_E18_BASELINE=PATH`` names a second checkout (for example a
``git archive`` of the parent commit) measured alongside this one; the two
trees alternate start by start, so the host's speed drift hits both alike.
The record (``BENCH_E18.json``) then also carries each command's relative
change of the median, the number of those alternating pairs of starts
this tree won, and the net change in lines of ``src/repro``.  It commits no
threshold: start-up times on shared CI hardware are too noisy to gate, and
``tests/test_import_surface.py`` pins which modules a decision loads.

Run standalone (``PYTHONPATH=src python benchmarks/bench_e18_cold_start.py``)
or through pytest with the bench collection options.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from record import write_record  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent

SAMPLES = 15

PAIR = ("q1(x,y) <- R^2(x,y)", "q2(x,y) <- R(x,y), R(x,z)")

_SESSION = "import repro\nsession = repro.Session(memoize=False)\n"

#: Each command as the code of one ``python -c``.
COMMANDS = {
    "bare": "pass\n",
    "import": "import repro\n",
    "session": _SESSION,
    "decide": _SESSION
    + f"session.decide(repro.parse_cq({PAIR[0]!r}), repro.parse_cq({PAIR[1]!r}))\n",
    "cli_decide": (
        "import runpy, sys\n"
        f"sys.argv = ['repro', 'decide', {PAIR[0]!r}, {PAIR[1]!r}]\n"
        "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
    ),
}

_COUNT = (
    "import atexit, sys\n"
    "atexit.register(lambda: sys.stderr.write('MODULES %d\\n' % sum(\n"
    "    name == 'repro' or name.startswith('repro.') for name in sys.modules)))\n"
)


def _fresh_copy(tree: Path, workdir: Path) -> Path:
    """A bytecode-free copy of *tree*'s ``src/repro``; returns its ``src``."""
    target = workdir / "src"
    shutil.copytree(
        tree / "src" / "repro", target / "repro", ignore=shutil.ignore_patterns("__pycache__")
    )
    return target


def _run(src: Path, code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=src, capture_output=True, text=True, timeout=120
    )


def _seconds(src: Path, code: str) -> float:
    started = time.perf_counter()
    completed = _run(src, code)
    elapsed = time.perf_counter() - started
    assert completed.returncode == 0, completed.stderr
    return elapsed


def _modules(src: Path, code: str) -> int:
    completed = _run(src, _COUNT + code)
    assert completed.returncode == 0, completed.stderr
    return int(completed.stderr.rsplit("MODULES ", 1)[1])


def _source_lines(tree: Path) -> int:
    files = (tree / "src" / "repro").rglob("*.py")
    return sum(len(path.read_text().splitlines()) for path in files)


def _summary(seconds: list[float]) -> dict:
    lower, median, upper = statistics.quantiles(seconds, n=4)
    return {"median_s": round(median, 4), "quartiles_s": [round(lower, 4), round(upper, 4)]}


def measure(trees: dict[str, Path], samples: int) -> tuple[dict, dict]:
    """Per tree and command: the start times' summary and loaded ``repro``
    modules; and the raw start times, the *i*-th of each tree one pair."""
    with tempfile.TemporaryDirectory() as scratch:
        sources = {label: _fresh_copy(tree, Path(scratch) / label) for label, tree in trees.items()}
        times: dict[str, dict[str, list[float]]] = {
            label: {name: [] for name in COMMANDS} for label in trees
        }
        labels = list(trees)
        for sample in range(samples):
            for name, code in COMMANDS.items():
                for label in labels if sample % 2 == 0 else reversed(labels):
                    times[label][name].append(_seconds(sources[label], code))
        summaries = {
            label: {
                name: {**_summary(times[label][name]), "modules": _modules(sources[label], code)}
                for name, code in COMMANDS.items()
            }
            for label in trees
        }
        return summaries, times


def _spread(summary: dict) -> str:
    lower, upper = summary["quartiles_s"]
    return f"{summary['median_s']:.3f} s [{lower:.3f}-{upper:.3f}]"


def bench_e18_cold_start() -> None:
    baseline = os.environ.get("BENCH_E18_BASELINE")
    trees = {"change": REPO_ROOT}
    if baseline:
        trees["baseline"] = Path(baseline).resolve()
    print(f"E18 — cold start, median [quartiles] of {SAMPLES} fresh interpreters per command")
    results, times = measure(trees, SAMPLES)
    change = results["change"]
    payload: dict = {"source": "bench_e18_cold_start", "samples": SAMPLES, "pair": PAIR}
    metrics = {
        "setup_s": change["session"]["median_s"],
        "cli_decide_s": change["cli_decide"]["median_s"],
    }
    for name in COMMANDS:
        after = change[name]
        row = f"    {name:<11} {_spread(after)}  {after['modules']:3d} modules"
        if baseline:
            before = results["baseline"][name]
            relative = after["median_s"] / before["median_s"] - 1.0
            won = sum(a < b for a, b in zip(times["change"][name], times["baseline"][name]))
            after["relative_change"] = round(relative, 3)
            after["pairs_won"] = won
            row += f"   (baseline {_spread(before)}, {before['modules']} modules"
            row += f": {relative:+.1%}, {won}/{SAMPLES} pairs won)"
        print(row)
    payload["commands"] = results
    if baseline:
        payload["net_source_lines"] = _source_lines(REPO_ROOT) - _source_lines(trees["baseline"])
        metrics["setup_s_relative_change"] = change["session"]["relative_change"]
        metrics["cli_decide_relative_change"] = change["cli_decide"]["relative_change"]
    payload["metrics"] = metrics
    payload["thresholds"] = {}
    print(f"record written to {write_record('e18', payload)}")


if __name__ == "__main__":
    bench_e18_cold_start()
