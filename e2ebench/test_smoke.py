"""Smoke test of the end-to-end benchmark at tiny sizes.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q e2ebench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import pickle
from pathlib import Path

import pytest

import pools
import run
import spans
import verdicts
from repro import Session

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
COUNTS = (
    "engine.mappings",
    "diophantine.system_rows",
    "certificates.count",
    "persist.hits",
    "persist.misses",
    "persist.stores",
)


def _tiny(name: str, trace: bool) -> dict:
    result, _ = run.run_workload(name, seed=0, seconds=0.0, trace=trace, tiny=True)
    return result


@pytest.mark.parametrize("name", pools.WORKLOADS)
def test_every_metric_is_reported_with_a_unit_and_nothing_fails(name):
    for trace, declared in ((False, "end_to_end"), (True, "per_layer")):
        result = _tiny(name, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        declared_metrics = json.loads(BENCHMARK.read_text())[declared]
        expected = {metric["name"]: metric["unit"] for metric in declared_metrics}
        assert set(result["metrics"]) == set(expected)
        for key, metric in result["metrics"].items():
            assert metric["unit"] == expected[key]
            assert isinstance(metric["value"], (int, float))


def test_each_request_is_scaled_by_the_probes_either_side_of_it():
    reference = run.calibrate.REFERENCE_SECONDS
    probes = [(0, reference), (2, 3 * reference), (3, reference)]
    assert run.scales(probes) == [0.5, 0.5, 0.5]
    assert run.scales([(0, reference), (1, reference / 2)]) == [4 / 3]


def test_traced_counts_repeat_exactly_for_a_seed():
    for name in pools.WORKLOADS:
        first, second = _tiny(name, True), _tiny(name, True)
        for key in COUNTS:
            assert first["metrics"][key]["value"] == second["metrics"][key]["value"], (name, key)


def _decided(contained: bool):
    reference = verdicts.load_reference()
    for item in pools.build("mixed", 0, tiny=True).items:
        if reference[item.key] == contained:
            return reference, item, Session(memoize=False).decide(item.request)
    raise AssertionError("the tiny mixed pass lacks a verdict of each kind")


@pytest.mark.parametrize("contained", (True, False))
def test_a_corrupted_verdict_is_caught(contained):
    reference, item, outcome = _decided(contained)
    checker = verdicts.Checker(reference)
    assert checker.check(item.key, item.request, outcome)
    corrupted = dataclasses.replace(outcome, verdict=not outcome.verdict)
    assert not checker.check(item.key, item.request, corrupted)
    assert checker.failures


def test_a_corrupted_counterexample_is_caught():
    reference, item, outcome = _decided(False)
    certificate = outcome.certificate
    forged = dataclasses.replace(
        certificate, containing_multiplicity=certificate.containee_multiplicity
    )
    checker = verdicts.Checker(reference)
    assert not checker.check(item.key, item.request, dataclasses.replace(outcome, certificate=forged))


def test_the_checker_process_counts_a_corrupted_verdict():
    items = pools.build("mixed", 0, tiny=True).items
    session = Session(memoize=False)
    answers = [verdicts.Answer.of(session.decide(item.request)) for item in items]
    answers[0] = dataclasses.replace(answers[0], verdict=not answers[0].verdict)
    checker = verdicts.CheckerProcess("mixed", 0, tiny=True)
    try:
        passed, failures = checker.check_pass(answers)
    finally:
        checker.close()
    assert passed == len(items) - 1 and len(failures) == 1


def test_every_load_of_a_request_is_a_new_object_with_no_cached_hash():
    request = pools.build("warm", 0, tiny=True).items[0].request
    hash(request.containee)
    blob = run.request_blob(request)
    first, second = pickle.loads(blob), pickle.loads(blob)
    assert first == request == second
    assert first.containee is not second.containee
    assert first.containee.body_atoms()[0] is not second.containee.body_atoms()[0]
    assert first.containee._hash is None and first.containing._hash is None


def test_a_vanished_layer_breaks_the_tracer(monkeypatch):
    moved = spans.Target("repro.core.decision", "decide_mpi_renamed", "diophantine.solver", spans.ALL)
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (moved,))
    with pytest.raises(spans.TracerError, match="no longer exists"):
        with spans.installed(spans.Recorder()):
            pass


def test_a_silent_layer_is_reported():
    recorder = spans.Recorder()
    assert "session" in spans.missing_spans(recorder, "mixed")
