"""scipy is optional: the library imports and decides exactly without it.

Run in a subprocess whose ``sys.modules`` blocks ``scipy`` and ``numpy``,
so the check holds however the test interpreter itself is provisioned.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPT = """
import json
import sys

sys.modules["scipy"] = None
sys.modules["numpy"] = None
sys.path.insert(0, {src_path!r})

import repro
from repro.exceptions import ReproError

smaller = repro.parse_cq("q1(x1, x2) <- R^2(x1, x2), P^3(x2, x2)")
larger = repro.parse_cq("q2(x1, x2) <- R^3(x1, x2), P^3(x2, x2)")
session = repro.Session()
contained = session.decide(smaller, larger)
refuted = session.decide(larger, smaller)
report = {{
    "contained": contained.verdict,
    "refuted": refuted.verdict,
    "certified": refuted.certificate.verify(larger, smaller),
    "methods": sorted({{d.method for d in contained.value.mpi_decisions}}),
}}
try:
    session.decide(smaller, larger, diophantine_path="lp")
except ReproError as error:
    report["lp_error"] = [type(error).__name__, str(error)]
except Exception as error:
    report["lp_error"] = ["UNEXPECTED " + type(error).__name__, str(error)]
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def report():
    """The blocked-scipy subprocess's JSON report (run once per module)."""
    src_path = str(Path(__file__).parents[2] / "src")
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(src_path=src_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_import_and_exact_decisions_work_without_scipy(report):
    assert report["contained"] is True
    assert report["refuted"] is False
    assert report["methods"] == ["fourier-motzkin"]


def test_refutation_certificate_verifies_without_scipy(report):
    assert report["certified"] is True


def test_lp_path_names_the_missing_dependency(report):
    # The LP path names the missing dependency through a library error.
    kind, message = report["lp_error"]
    assert kind == "LinearSystemError"
    assert "scipy" in message
