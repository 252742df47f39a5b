"""Crash safety and concurrent access for the persistent cache tier.

The tentpole robustness claims, tested with real processes:

* **Kill/restart campaign** — sessions replaying a corpus against a shared
  store are SIGKILLed at ≥20 random points mid-run; the store must stay
  serviceable after every kill, and a final warm run must produce stdout
  **byte-identical** (modulo per-case wall-clock timings) to a cold run
  without any persistence, with zero discrepancies and zero unhandled
  exceptions anywhere.
* **Two processes, one store** — concurrent full runs over the same store
  must both succeed with identical output; a reader overlapping a writer's
  open transaction degrades to a miss, never an error surface; racing
  store *creation* from two processes yields one healthy store.

The torn-write/truncation simulations live in
``tests/engine/test_persist.py``; here everything crosses real process
boundaries.
"""

import os
import random
import re
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine.persist import PersistentCache

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: How many random interruption points the kill/restart campaign uses.
INTERRUPTIONS = 20


def _cli(args, env_extra=None, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (REPO_SRC, env.get("PYTHONPATH")) if path
    )
    env.update(env_extra or {})
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        **kwargs,
    )


def _run_cli(args, env_extra=None):
    process = _cli(args, env_extra=env_extra)
    stdout, stderr = process.communicate(timeout=300)
    return process.returncode, stdout, stderr


def _strip_timings(text: str) -> str:
    """Per-case wall-clock is the only legitimately unstable stdout content."""
    return re.sub(r" \[\d+\.\d+ms\]", "", text)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A replayable decision corpus, generated once for the module."""
    path = tmp_path_factory.mktemp("corpus") / "corpus.json"
    code, stdout, stderr = _run_cli(
        ["fuzz", "--cases", "30", "--seed", "11", "--no-shrink", "--save-corpus", str(path)]
    )
    assert code == 0, f"corpus generation failed:\n{stdout}\n{stderr}"
    assert path.exists()
    return path


class TestKillRestartCampaign:
    def test_warm_restarts_reproduce_the_cold_run(self, corpus, tmp_path):
        store = tmp_path / "campaign-store.db"

        # The reference: a cold run with no persistence at all.
        started = time.monotonic()
        code, cold_stdout, cold_stderr = _run_cli(["decide", "--batch", str(corpus)])
        cold_seconds = time.monotonic() - started
        assert code == 0, f"cold reference run failed:\n{cold_stdout}\n{cold_stderr}"
        assert "Traceback" not in cold_stderr

        # SIGKILL a persisting session at a random point, INTERRUPTIONS
        # times.  Delays are seeded (reproducible) fractions of the cold
        # run's wall time, so they spread from mid-import to mid-corpus on
        # any host and however fast the CLI starts; whatever half-written
        # state each kill leaves behind, the next session must start and
        # the store must keep serving.
        rng = random.Random(0xC0FFEE)
        killed = 0
        for round_index in range(INTERRUPTIONS):
            process = _cli(["decide", "--batch", str(corpus), "--persist", str(store)])
            time.sleep(rng.uniform(0.05, 0.9) * cold_seconds)
            process.send_signal(signal.SIGKILL)
            stdout, stderr = process.communicate(timeout=60)
            if process.returncode == -signal.SIGKILL:
                killed += 1
            assert "Traceback" not in (stderr or ""), (
                f"interrupted run {round_index} raised:\n{stderr}"
            )
        # Most rounds must genuinely interrupt (a few may finish first —
        # that only warms the store further).
        assert killed >= INTERRUPTIONS // 2, f"only {killed} runs were interrupted"

        # The warm run after all that violence: same verdicts, same
        # certificates flags, same summary — byte for byte.
        code, warm_stdout, warm_stderr = _run_cli(
            ["decide", "--batch", str(corpus), "--persist", str(store)]
        )
        assert code == 0, f"warm run failed:\n{warm_stdout}\n{warm_stderr}"
        assert "Traceback" not in warm_stderr
        assert _strip_timings(warm_stdout) == _strip_timings(cold_stdout)
        assert "0 errors" in warm_stdout

        # And the campaign left a healthy, inspectable store behind.
        code, info_stdout, _ = _run_cli(["cache", "info", str(store)])
        assert code == 0
        assert "(ok)" in info_stdout


class TestTwoProcessesOneStore:
    def test_concurrent_full_runs_agree(self, corpus, tmp_path):
        store = tmp_path / "shared-store.db"
        first = _cli(["decide", "--batch", str(corpus), "--persist", str(store)])
        second = _cli(["decide", "--batch", str(corpus), "--persist", str(store)])
        first_stdout, first_stderr = first.communicate(timeout=300)
        second_stdout, second_stderr = second.communicate(timeout=300)
        assert first.returncode == 0, first_stderr
        assert second.returncode == 0, second_stderr
        assert "Traceback" not in first_stderr and "Traceback" not in second_stderr
        assert _strip_timings(first_stdout) == _strip_timings(second_stdout)

    def test_reader_during_writers_open_transaction(self, tmp_path):
        store_path = tmp_path / "store.db"
        writer = PersistentCache(store_path)
        writer.store("results", ("session", ("committed",)), "visible")

        # A second connection holds an open write transaction with an
        # uncommitted row; WAL readers must see the last committed state —
        # a hit for the committed row, a clean miss (no error) for the
        # uncommitted one.
        blocker = sqlite3.connect(store_path, isolation_level=None)
        try:
            blocker.execute("BEGIN IMMEDIATE")
            blocker.execute(
                "INSERT INTO entries (layer, key, backend, limits, schema, value, created) "
                "VALUES ('results', 'uncommitted', 'interned', '', 1, x'00', 0)"
            )
            reader = PersistentCache(store_path)
            assert reader.load("results", ("session", ("committed",))) == "visible"
            assert reader.stats.errors == 0
            reader.close()
        finally:
            blocker.execute("ROLLBACK")
            blocker.close()
        writer.close()

    def test_writer_behind_a_held_write_lock_counts_an_error(self, tmp_path, monkeypatch):
        store_path = tmp_path / "store.db"
        bootstrap = PersistentCache(store_path)
        bootstrap.close()

        blocker = sqlite3.connect(store_path, isolation_level=None)
        try:
            blocker.execute("BEGIN IMMEDIATE")
            store = PersistentCache(store_path)
            # Shrink the busy timeout so the lock loss resolves in test time.
            store._connection.execute("PRAGMA busy_timeout = 50")
            assert not store.store("results", ("session", ("blocked",)), "value")
            assert store.stats.errors == 1
            store.close()
        finally:
            blocker.execute("ROLLBACK")
            blocker.close()

    def test_racing_store_creation(self, corpus, tmp_path):
        # Two processes create the same (absent) store path concurrently —
        # the classic worker-race on first use.  Both must come up and
        # serve; the file must end up healthy.
        store = tmp_path / "raced" / "store.db"
        first = _cli(["decide", "--batch", str(corpus), "--persist", str(store)])
        second = _cli(["decide", "--batch", str(corpus), "--persist", str(store)])
        for process in (first, second):
            stdout, stderr = process.communicate(timeout=300)
            assert process.returncode == 0, stderr
            assert "Traceback" not in stderr
        with PersistentCache(store) as check:
            assert check.info()["status"] == "ok"
            assert check.info()["entries"] > 0
