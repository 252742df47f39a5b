"""The output check, run outside the timed region and outside the measured process.

Every verdict is compared with the committed reference (``reference.json``,
made off the timed path by ``make_reference.py``).  Every not-contained
verdict must carry a counterexample, which is replayed with
``ContainmentCounterexample.verify`` under the ``naive`` backend; a
certificate equal to one already replayed for the same pair is accepted
without a second replay (passes repeat, and warm repeats requests).

``run.py`` runs the check in a child process (:class:`CheckerProcess`):
the replay session and its certificates never count in the measured
process's peak memory.  The child rebuilds the workload from its name and
seed, reads one pickled list of :class:`Answer` per pass on standard
input and writes back ``(passed, failures)``.  Usage::

    python3 e2ebench/verdicts.py WORKLOAD SEED [--tiny]
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def load_reference() -> dict[str, int]:
    """Verdict by pair key (1 = contained) from the reference file."""
    return json.loads(REFERENCE.read_text())["verdicts"]


@dataclass(frozen=True)
class Answer:
    """What the check needs of one outcome, small enough to pickle per pass."""

    verdict: bool | None
    certificate: Any
    error: str | None
    degraded: str | None

    @classmethod
    def of(cls, outcome: Any) -> "Answer":
        """The answer of an ``Outcome``, or of the exception a request raised."""
        if isinstance(outcome, BaseException):
            return cls(None, None, f"raised {outcome!r}", None)
        error = None if outcome.error is None else repr(outcome.error)
        return cls(outcome.verdict, outcome.certificate, error, outcome.degraded)


class Checker:
    """Checks outcomes against the reference and records every failure."""

    def __init__(self, reference: dict[str, int]) -> None:
        from repro import Session

        self.reference = reference
        self.failures: list[str] = []
        self._naive = Session(backend="naive", memoize=False, name="e2ebench-replay")
        self._replayed: dict[str, list[object]] = {}

    def check(self, key: str, request, outcome) -> bool:
        """Whether *outcome* (an ``Outcome``, an :class:`Answer` or the exception raised) is correct."""
        reason = self._reason(key, request, outcome)
        if reason is not None:
            self.failures.append(f"{key}: {reason}")
        return reason is None

    def _reason(self, key: str, request, outcome) -> str | None:
        from repro import use_session
        from repro.exceptions import CertificateError

        if isinstance(outcome, BaseException):
            return f"raised {outcome!r}"
        if outcome.error is not None or outcome.degraded is not None:
            return f"error={outcome.error!r} degraded={outcome.degraded!r}"
        expected = self.reference.get(key)
        if expected is None:
            return "pair is not in the reference"
        if outcome.verdict is not bool(expected):
            return f"verdict {outcome.verdict} but the reference says {bool(expected)}"
        if outcome.verdict:
            return None
        certificate = outcome.certificate
        if certificate is None:
            return "not contained, but no counterexample"
        replayed = self._replayed.setdefault(key, [])
        if any(certificate == known for known in replayed):
            return None
        try:
            with use_session(self._naive):
                holds = certificate.verify(request.containee, request.containing)
        except CertificateError as error:
            return f"counterexample replay failed: {error}"
        if not holds:
            return "counterexample does not violate containment on replay"
        replayed.append(certificate)
        return None


class CheckerProcess:
    """A :class:`Checker` in a child process, fed one pass at a time."""

    def __init__(self, workload: str, seed: int, tiny: bool = False) -> None:
        command = [sys.executable, str(Path(__file__).resolve()), workload, str(seed)]
        if tiny:
            command.append("--tiny")
        self._process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=HERE.parent
        )

    def check_pass(self, answers: list[Answer]) -> tuple[int, list[str]]:
        """``(requests that passed, failure reasons)`` for one pass's answers, in request order."""
        assert self._process.stdin is not None and self._process.stdout is not None
        pickle.dump(answers, self._process.stdin)
        self._process.stdin.flush()
        try:
            return pickle.load(self._process.stdout)
        except EOFError:
            raise RuntimeError(f"the checker process exited with {self._process.wait()}") from None

    def close(self) -> None:
        """End the child and wait for it."""
        if self._process.stdin is not None:
            self._process.stdin.close()
        try:
            self._process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        if self._process.stdout is not None:
            self._process.stdout.close()


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import pools

    workload, seed = argv[0], int(argv[1])
    items = pools.build(workload, seed, tiny="--tiny" in argv[2:]).items
    checker = Checker(load_reference())
    source, sink = sys.stdin.buffer, sys.stdout.buffer
    while True:
        try:
            answers = pickle.load(source)
        except EOFError:
            return 0
        known = len(checker.failures)
        passed = sum(
            checker.check(item.key, item.request, answer) for item, answer in zip(items, answers)
        )
        pickle.dump((passed, checker.failures[known:]), sink)
        sink.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
