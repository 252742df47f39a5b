"""Unit tests for the decider-vs-baselines cross-check harness."""

from repro.baselines.comparison import cross_check
from repro.queries.parser import parse_cq
from repro.workloads.paper_examples import section2_q1, section2_q2, section2_q3
from repro.workloads.random_queries import random_containment_pair, random_unrelated_pair


class TestCrossCheck:
    def test_paper_pairs_are_consistent(self):
        for containee, containing in [
            (section2_q1(), section2_q2()),
            (section2_q2(), section2_q1()),
            (section2_q1(), section2_q3()),
            (section2_q2(), section2_q3()),
        ]:
            report = cross_check(containee, containing, max_multiplicity=2, random_trials=30)
            assert report.consistent
            assert report.exact.contained == (not report.bounded.refuted) or not report.exact.contained

    def test_negative_verdicts_carry_verified_counterexamples(self):
        report = cross_check(section2_q2(), section2_q1())
        assert not report.exact.contained
        assert report.exact.counterexample is not None

    def test_hand_written_pairs(self):
        pairs = [
            ("q1(x) <- R(x, x)", "q2(x) <- R(x, x), R(x, y)"),
            ("q1(x) <- R^2(x, x)", "q2(x) <- R(x, x)"),
            ("q1(x, y) <- R(x, y), S(y, x)", "q2(x, y) <- R(x, y)"),
            ("q1(x) <- R(x, a)", "q2(x) <- R(x, y)"),
        ]
        for containee_text, containing_text in pairs:
            report = cross_check(parse_cq(containee_text), parse_cq(containing_text))
            assert report.consistent

    def test_random_containment_pairs_are_consistent(self):
        for seed in range(12):
            containee, containing = random_containment_pair(seed, num_atoms=3, head_size=2)
            report = cross_check(containee, containing, max_multiplicity=2, random_trials=25)
            assert report.consistent

    def test_random_unrelated_pairs_are_consistent(self):
        for seed in range(12):
            containee, containing = random_unrelated_pair(seed, num_atoms=3, head_size=2)
            if not containee.is_projection_free():
                continue
            report = cross_check(containee, containing, max_multiplicity=2, random_trials=25)
            assert report.consistent


class TestCrossCheckBackend:
    @staticmethod
    def _spy_naive(monkeypatch):
        from repro.engine.backends import NaiveBackend

        calls = []
        original = NaiveBackend.iterate

        def spy(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(NaiveBackend, "iterate", spy)
        return calls

    def test_cross_check_runs_on_the_active_sessions_backend(self, monkeypatch):
        from repro.session import Session, use_session

        calls = self._spy_naive(monkeypatch)
        with use_session(Session(backend="naive")):
            report = cross_check(section2_q1(), section2_q2())
        assert report.consistent
        assert calls, "cross_check must run on the active session's backend"

    def test_cross_check_runs_on_the_passed_sessions_backend(self, monkeypatch):
        from repro.session import Session

        calls = self._spy_naive(monkeypatch)
        report = cross_check(section2_q1(), section2_q2(), session=Session(backend="naive"))
        assert report.consistent
        assert calls, "cross_check must run on the passed session's backend"

    def test_cross_check_without_a_session_uses_the_shared_instances(self):
        from repro.engine import default_cache

        cache = default_cache()
        before = sum(counts[0] + counts[1] for counts in cache.snapshot().values())
        report = cross_check(section2_q1().with_name("shared"), section2_q2())
        assert report.consistent
        after = sum(counts[0] + counts[1] for counts in cache.snapshot().values())
        assert after > before
