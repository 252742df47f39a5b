"""``Outcome.elapsed`` is timing metadata: no verdict, certificate or digest reads it.

Two runs of the same decision take different wall-clock times, so anything
users compare across runs (verdicts, certificates, memoised values, a chaos
campaign's replay digest) must be identical whatever ``elapsed`` reads.
"""

import dataclasses

import pytest

from repro.faults.chaos import ChaosConfig, run_chaos
from repro.queries.parser import parse_cq
from repro.session import Session

CONTAINED = (
    "q1(x1, x2) <- R^2(x1, x2), P^3(x2, x2)",
    "q2(x1, x2) <- R^3(x1, x2), P^3(x2, x2)",
)


@pytest.mark.parametrize("pair", [CONTAINED, CONTAINED[::-1]], ids=["holds", "fails"])
def test_fresh_sessions_agree_on_everything_but_timing(pair):
    containee, containing = map(parse_cq, pair)
    first = Session(memoize=False).decide(containee, containing)
    second = Session(memoize=False).decide(containee, containing)
    assert first.elapsed >= 0 and second.elapsed >= 0
    assert first.verdict == second.verdict
    assert first.value == second.value
    assert first.certificate == second.certificate
    assert repr(first.certificate) == repr(second.certificate)


def test_a_memo_hit_returns_the_same_value_with_its_own_timing():
    containee, containing = map(parse_cq, CONTAINED[::-1])
    session = Session()
    first = session.decide(containee, containing)
    second = session.decide(containee, containing)
    assert second.cache["results"] == (1, 0, 0)
    assert second.value is first.value
    assert (second.verdict, second.certificate) == (first.verdict, first.certificate)


def test_chaos_replay_digest_ignores_the_campaign_timing():
    report = run_chaos(ChaosConfig(cases=6, seed=2, schedule="persist", jobs=1))
    slower = dataclasses.replace(report, elapsed=report.elapsed + 60.0)
    assert slower.digest() == report.digest()
    assert f"replay digest: {report.digest()}" in slower.describe()
