"""The verified fuzz campaign: 300 cases with online soundness checks.

Every plan the interned backend compiles during the differential campaign
is pushed through ``verify_plan``.  The campaign must stay green AND report
zero violations — a regression in either the engine or the verifier itself
fails here.
"""

from repro.session import Session
from repro.verify.runner import BACKEND_NAMES


def test_300_case_campaign_verifies_every_plan():
    session = Session(backend="interned", debug_verify_plans=True)
    report = session.fuzz(
        cases=300,
        seed=0,
        jobs=2,
        shrink_failures=False,
    ).value
    assert report.ok, report.describe()
    assert report.cases_run == 300
    # The differential oracle runs every registered backend per case; the
    # naive reference compiles nothing, so the counts are interned plans.
    assert set(report.config.backends) == set(BACKEND_NAMES)
    plans, violations = report.engine_stats["verify"]
    assert violations == 0, report.describe()
    assert plans > 300  # several plans per case
    assert "0 violations" in report.describe()
