"""The decider-vs-baselines cross-check, run through ``Session.verify``.

The differential oracle checks a positive consensus against set
containment (which bag containment implies) and the bounded and random
refuters, and replays every negative verdict's counterexample bag.
"""

from repro.queries.parser import parse_cq
from repro.session import Session
from repro.verify import OracleConfig
from repro.workloads.paper_examples import section2_q1, section2_q2, section2_q3
from repro.workloads.random_queries import random_containment_pair, random_unrelated_pair

#: The exact decider next to the baselines, on one decision path.
CONFIG = OracleConfig(
    strategies=("most-general",),
    backends=("interned",),
    diophantine_paths=("exact",),
    refuter_max_multiplicity=2,
    refuter_trials=25,
)


def _consistent(containee, containing, session=None, config=CONFIG):
    """The oracle's report on the pair, asserted free of discrepancies."""
    outcome = (session or Session()).verify(containee, containing, config)
    report = outcome.value
    assert report.ok, report.describe()
    assert outcome.verdict is report.consensus is not None
    return report


class TestCrossCheck:
    def test_paper_pairs_are_consistent(self):
        for containee, containing in [
            (section2_q1(), section2_q2()),
            (section2_q2(), section2_q1()),
            (section2_q1(), section2_q3()),
            (section2_q2(), section2_q3()),
        ]:
            _consistent(containee, containing)

    def test_negative_verdicts_carry_verified_counterexamples(self):
        report = _consistent(section2_q2(), section2_q1())
        assert report.consensus is False
        assert [run.certificate_ok for run in report.runs] == [True]

    def test_hand_written_pairs(self):
        pairs = [
            ("q1(x) <- R(x, x)", "q2(x) <- R(x, x), R(x, y)"),
            ("q1(x) <- R^2(x, x)", "q2(x) <- R(x, x)"),
            ("q1(x, y) <- R(x, y), S(y, x)", "q2(x, y) <- R(x, y)"),
            ("q1(x) <- R(x, a)", "q2(x) <- R(x, y)"),
        ]
        for containee_text, containing_text in pairs:
            _consistent(parse_cq(containee_text), parse_cq(containing_text))

    def test_random_containment_pairs_are_consistent(self):
        for seed in range(12):
            containee, containing = random_containment_pair(seed, num_atoms=3, head_size=2)
            _consistent(containee, containing)

    def test_random_unrelated_pairs_are_consistent(self):
        for seed in range(12):
            containee, containing = random_unrelated_pair(seed, num_atoms=3, head_size=2)
            if not containee.is_projection_free():
                continue
            _consistent(containee, containing)


class TestCrossCheckBackend:
    def test_oracle_runs_on_the_configured_backend(self, monkeypatch):
        from repro.engine.backends import NaiveBackend

        calls = []
        original = NaiveBackend.iterate

        def spy(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(NaiveBackend, "iterate", spy)
        naive = OracleConfig(
            strategies=("most-general",),
            backends=("naive",),
            diophantine_paths=("exact",),
            refuter_max_multiplicity=2,
            refuter_trials=25,
        )
        _consistent(section2_q1(), section2_q2(), session=Session(backend="naive"), config=naive)
        assert calls, "the cross-check must run on the configured backend"
