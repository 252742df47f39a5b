"""Tests for wall-clock deadlines (``repro.faults.runtime`` + Session).

The contract under test: ``Limits.deadline_ms`` bounds each request; an
exhausted budget yields an honest degraded Outcome (``verdict None``,
``degraded="deadline"``) instead of raising or guessing; degraded runs
never poison the session memo; and — the neutrality property — a generous
deadline changes *nothing* about the outcomes of requests that finish
under it, on every engine backend.
"""

import time

import pytest

from repro.engine import backend_names
from repro.exceptions import DeadlineExceeded, SessionError
from repro.faults import (
    FaultPlan,
    FaultRule,
    TICK_INTERVAL,
    check_deadline,
    deadline_scope,
    tick_handle,
    use_faults,
)
from repro.faults.runtime import deadline_handle
from repro.session import Limits, Session
from repro.workloads.scale import mixed_requests
from repro.workloads.structured import chain_containment_pair


def _small_pair():
    return chain_containment_pair(2)


class TestRuntimePrimitives:
    def test_limits_validation(self):
        with pytest.raises(SessionError, match="deadline_ms"):
            Limits(deadline_ms=0)
        with pytest.raises(SessionError, match="deadline_ms"):
            Limits(deadline_ms=-5)
        assert Limits(deadline_ms=100).deadline_ms == 100
        assert Limits().deadline_ms is None

    def test_check_deadline_raises_after_expiry(self):
        with deadline_scope(5):
            time.sleep(0.02)
            with pytest.raises(DeadlineExceeded):
                check_deadline()
        check_deadline()  # scope closed: no ambient deadline, no raise

    def test_deadline_scope_none_is_noop(self):
        with deadline_scope(None):
            check_deadline()

    def test_innermost_scope_wins(self):
        with deadline_scope(60_000):
            with deadline_scope(5):
                time.sleep(0.02)
                with pytest.raises(DeadlineExceeded):
                    check_deadline()
            check_deadline()  # back to the generous outer budget

    def test_tick_handle_inactive_is_none(self):
        assert tick_handle() is None

    def test_tick_handle_polls_deadline(self):
        with deadline_scope(5):
            tick = tick_handle()
            assert tick is not None
            time.sleep(0.02)
            with pytest.raises(DeadlineExceeded):
                tick()

    def test_deadline_handle_polls_the_deadline_only(self):
        assert deadline_handle() is None
        # An armed fault plan alone arms nothing here: the executor sites
        # stay the engine's.
        with use_faults(FaultPlan(rules=(FaultRule("executor.start", "latency", delay_ms=1.0),))):
            assert deadline_handle() is None
        with deadline_scope(5):
            tick = deadline_handle()
            assert tick is not None
            time.sleep(0.02)
            with pytest.raises(DeadlineExceeded):
                tick()
            with pytest.raises(DeadlineExceeded):
                deadline_handle()

    def test_tick_interval_bounds_polling_cost(self):
        assert TICK_INTERVAL == 64


class TestSessionDeadline:
    def test_admission_latency_past_deadline_degrades_honestly(self):
        containee, containing = _small_pair()
        plan = FaultPlan(
            rules=(FaultRule("session.execute", "latency", delay_ms=80.0),)
        )
        session = Session(limits=Limits(deadline_ms=25), fault_plan=plan)
        outcome = session.decide(containee, containing)
        assert outcome.degraded == "deadline"
        assert outcome.verdict is None
        assert outcome.value is None
        assert outcome.error is None
        assert outcome.elapsed >= 0.0
        assert "deadline" in outcome.explain()

    def test_engine_start_latency_past_deadline_degrades(self):
        containee, containing = _small_pair()
        plan = FaultPlan(rules=(FaultRule("executor.start", "latency", delay_ms=80.0),))
        session = Session(limits=Limits(deadline_ms=25), fault_plan=plan)
        outcome = session.decide(containee, containing)
        assert outcome.degraded == "deadline"
        assert outcome.verdict is None

    def test_budget_spent_after_the_engine_degrades_in_the_encoding(self, monkeypatch):
        # The engine returns its last factor's mappings just before the
        # budget runs out; nothing downstream of it polls the engine's tick,
        # so the encoding must turn the rest of the request into an honest
        # degradation instead of a late verdict.  Earlier factors return at
        # once: a slow one would trip the next factor's engine start check
        # instead.  The polynomial must never be built, so the degradation
        # cannot come from the Diophantine solver's own poll either.
        from repro.core import encoding
        from repro.engine.batch import ContainmentMappingBatcher
        from repro.workloads.scale import wide_star_pair

        engine_mappings = ContainmentMappingBatcher.mappings
        image_polynomial = encoding._image_polynomial
        built = []

        def slow_mappings(self, grounded, probe, factor=None):
            mappings = engine_mappings(self, grounded, probe, factor)
            if factor is None or factor == len(self.factors) - 1:
                time.sleep(0.06)
            return mappings

        def watched_image_polynomial(*args):
            polynomial = image_polynomial(*args)
            built.append(polynomial)
            return polynomial

        monkeypatch.setattr(ContainmentMappingBatcher, "mappings", slow_mappings)
        monkeypatch.setattr(encoding, "_image_polynomial", watched_image_polynomial)
        containee, containing = wide_star_pair(2, 2)
        session = Session(limits=Limits(deadline_ms=30))
        outcome = session.decide(containee, containing)
        assert outcome.degraded == "deadline"
        assert outcome.verdict is None and outcome.value is None
        assert outcome.error is None
        assert built == []
        monkeypatch.setattr(ContainmentMappingBatcher, "mappings", engine_mappings)
        retried = session.decide(containee, containing)
        assert retried.degraded is None and retried.verdict is True

    def test_factor_convolution_polls_the_deadline(self):
        # Twelve existential rays over nine leaves: 108 factor mappings
        # convolve into 125,970 monomials.  Without a poll inside the
        # convolution the request overran a 5ms budget by seconds.
        from repro.workloads.scale import wide_star_pair

        containee, containing = wide_star_pair(9, 12)
        session = Session(limits=Limits(deadline_ms=5), memoize=False)
        started = time.perf_counter()
        outcome = session.decide(containee, containing)
        elapsed_ms = (time.perf_counter() - started) * 1000
        assert outcome.degraded == "deadline"
        assert outcome.verdict is None and outcome.error is None
        assert elapsed_ms < 500, f"degraded only after {elapsed_ms:.0f}ms"

    def test_bounded_guess_enumeration_polls_the_deadline(self):
        # The triangle against itself leaves millions of candidate vectors
        # under the Lemma 5.1 bound; without a poll inside the candidate
        # loop the request overran a 5ms budget by seconds.
        from repro.queries.parser import parse_cq

        triangle = parse_cq("q(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        session = Session(
            limits=Limits(deadline_ms=5, bounded_guess_max_candidates=5_000_000),
            memoize=False,
        )
        started = time.perf_counter()
        outcome = session.decide(triangle, triangle, strategy="bounded-guess")
        elapsed_ms = (time.perf_counter() - started) * 1000
        assert outcome.degraded == "deadline"
        assert outcome.verdict is None and outcome.error is None
        assert elapsed_ms < 500, f"degraded only after {elapsed_ms:.0f}ms"

    def test_all_probes_enumeration_stays_inside_the_budget(self):
        # Six head positions share one variable over a 16-constant domain:
        # 16 probe tuples, but filtering all 16^6 candidate tuples took
        # seconds between two probes, where no deadline poll runs.
        from repro.queries.parser import parse_cq

        atoms = ", ".join(f"R(x,c{index})" for index in range(15))
        containee = parse_cq(f"q1(x,x,x,x,x,x) <- {atoms}")
        containing = parse_cq(f"q2(y,y,y,y,y,y) <- {atoms.replace('x', 'y')}")
        session = Session(limits=Limits(deadline_ms=5), memoize=False)
        started = time.perf_counter()
        outcome = session.decide(containee, containing, strategy="all-probes")
        elapsed_ms = (time.perf_counter() - started) * 1000
        assert outcome.degraded == "deadline"
        assert outcome.verdict is None and outcome.error is None
        assert elapsed_ms < 500, f"degraded only after {elapsed_ms:.0f}ms"

    def test_generous_deadline_leaves_bounded_guess_outcomes_unchanged(self):
        # The contained pairs here enumerate about 1,200 candidates each, so
        # the candidate loop's deadline poll fires many times per request.
        from repro.session import ContainmentRequest
        from repro.workloads.random_queries import random_adversarial_pair

        requests = [
            ContainmentRequest(
                *random_adversarial_pair(seed, num_atoms=2, head_size=1),
                strategy="bounded-guess",
            )
            for seed in range(16)
        ]
        plain = list(Session(memoize=False).batch(requests, capture_errors=True))
        bounded = list(
            Session(limits=Limits(deadline_ms=120_000), memoize=False).batch(
                requests, capture_errors=True
            )
        )
        assert [o.verdict for o in plain] == [o.verdict for o in bounded]
        assert [o.error for o in plain] == [o.error for o in bounded]
        assert all(o.degraded is None for o in bounded)
        assert {o.verdict for o in bounded} >= {True, False}

    def test_candidate_cap_still_raises_under_a_deadline(self):
        # The budget check runs before the enumeration starts; an armed
        # deadline must not turn it into a degraded outcome.
        from repro.exceptions import EnumerationBudgetError
        from repro.queries.parser import parse_cq

        triangle = parse_cq("q(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        session = Session(
            limits=Limits(deadline_ms=60_000, bounded_guess_max_candidates=10),
            memoize=False,
        )
        with pytest.raises(EnumerationBudgetError, match="bounded-guess enumeration"):
            session.decide(triangle, triangle, strategy="bounded-guess")

    def test_degraded_run_does_not_poison_the_memo(self):
        containee, containing = _small_pair()
        plan = FaultPlan(
            rules=(FaultRule("session.execute", "latency", delay_ms=80.0, count=1),)
        )
        session = Session(limits=Limits(deadline_ms=25), fault_plan=plan)
        first = session.decide(containee, containing)
        assert first.degraded == "deadline"
        # The injected latency is exhausted (count=1): the retry must run
        # for real and produce a verdict — a memoized degraded outcome
        # would surface verdict None again.
        second = session.decide(containee, containing)
        assert second.degraded is None
        assert second.verdict is not None

    def test_expired_case_budgets_degrade_instead_of_failing(self):
        # The oracle must let DeadlineExceeded through: a budget spent
        # mid-engine is a degraded case, never an ``error`` discrepancy.
        from repro.verify.runner import CampaignConfig, run_campaign

        report = run_campaign(
            CampaignConfig(cases=30, seed=0, deadline_ms=1, shrink_failures=False)
        )
        assert report.ok, report.describe()
        assert report.cases_run == 30
        assert report.degraded_cases > 0
        for result in report.case_results:
            if result.degraded is None:
                assert result.decisions > 0
            else:
                assert result.degraded == "deadline"
                assert result.consensus is None and not result.failures

    def test_verify_and_fuzz_ignore_the_per_request_deadline(self):
        # Campaign-style services manage their own budgets; a 1ms session
        # deadline must not abort them.
        session = Session(limits=Limits(deadline_ms=1))
        outcome = session.fuzz(cases=2, seed=0)
        assert outcome.degraded is None
        assert outcome.error is None


class TestFourierMotzkinDeadline:
    def test_row_cap_overflow_raises_within_the_budget(self):
        # A dim-9 MPI whose elimination overflows the row cap (and falls
        # back to the LP) after hundreds of milliseconds: the combination
        # loop polls the deadline, so a 5ms budget raises promptly.
        import random

        from repro.diophantine.inequalities import MonomialPolynomialInequality
        from repro.diophantine.monomials import Monomial
        from repro.diophantine.polynomials import Polynomial
        from repro.diophantine.solver import decide_mpi

        rng = random.Random(16)
        monomial = Monomial(1, tuple(rng.randint(1, 3) for _ in range(9)))
        polynomial = Polynomial(
            [Monomial(1, tuple(rng.randint(0, 3) for _ in range(9))) for _ in range(27)],
            dimension=9,
        )
        inequality = MonomialPolynomialInequality(polynomial, monomial)
        started = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            with deadline_scope(5):
                decide_mpi(inequality)
        assert time.perf_counter() - started < 0.05

    @pytest.mark.parametrize("scan", ["prepare", "pick_variable"])
    def test_row_scans_raise_within_one_interval(self, scan):
        # Normalising a level's rows and choosing the next unknown each walk
        # every row; on the dim-9 seed-16 system above such a walk covers
        # ~40k rows and runs ~50ms.  Both poll every TICK_INTERVAL rows, so
        # under an expired deadline they read at most one interval of rows.
        import random

        from repro.linalg.fourier_motzkin import _pick_variable, _prepare

        rng = random.Random(0)
        rows = [(1, *(rng.randint(-5, 5) for _ in range(8))) for _ in range(50_000)]
        read = 0

        class CountedRows(list):
            def __iter__(self):
                nonlocal read
                for row in super().__iter__():
                    read += 1
                    yield row

        with deadline_scope(1):
            tick = deadline_handle()
            time.sleep(0.005)
            with pytest.raises(DeadlineExceeded):
                if scan == "prepare":
                    _prepare(CountedRows(rows), tick)
                else:
                    _pick_variable(CountedRows(rows), list(range(9)), tick)
        assert read <= TICK_INTERVAL


class TestWitnessDeadline:
    @pytest.fixture(scope="class")
    def wide_encoding(self):
        from repro.core.encoding import encode_most_general
        from repro.workloads.scale import wide_star_pair

        # 50,388 monomials over 8 unknowns.  On int arithmetic each unpolled
        # walk below must still clearly outlast the 100ms bound, not only the
        # 5ms budget: at wide_star_pair(8, 10) (19,448 monomials) specialising
        # the MPI takes ~65-115ms, too close to the bound to catch a missing
        # poll in ``Polynomial.substitute_power``.
        return encode_most_general(*wide_star_pair(8, 12, containee_boost=4))

    @staticmethod
    def _raises_promptly(call):
        started = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            with deadline_scope(5):
                call()
        # Polled, the call raises within ~10ms; unpolled, the calls below
        # take ~430ms and ~150ms on their own, and specialising alone ~290ms
        # (2.1 GHz Xeon).
        elapsed_ms = (time.perf_counter() - started) * 1000
        assert elapsed_ms < 100, f"raised only after {elapsed_ms:.0f}ms"

    def test_witness_assembly_polls_the_deadline(self, wide_encoding):
        # 50,388 monomials at d = 1^8: the Lemma 4.1 search takes well under
        # a millisecond, but specialising the MPI for it (~0.3 s) and checking
        # the witness (~0.15 s) each walk every monomial.  Specialising runs
        # first, so without the poll in ``Polynomial.substitute_power`` the
        # call overruns the 5ms budget by ~0.3 s before any check polls.
        from repro.diophantine.solver import witness_from_linear_solution

        self._raises_promptly(
            lambda: witness_from_linear_solution(wide_encoding.inequality, (1,) * 8)
        )

    def test_polynomial_evaluation_polls_the_deadline(self, wide_encoding):
        # The witness check, the solver's re-check and the counterexample
        # construction all evaluate the polynomial at the witness.
        self._raises_promptly(lambda: wide_encoding.polynomial.evaluate((3,) * 8))

    @pytest.mark.parametrize("derive", ["monomials", "render"])
    def test_deriving_the_monomials_polls_the_deadline(self, wide_encoding, derive):
        # The encoding's polynomial is its ``vector -> count`` table; the
        # first ``.monomials`` or ``render()`` builds one Monomial per entry.
        # A pickle round trip keeps the table alone, so each case derives
        # the 50,388 monomials afresh.
        import pickle

        polynomial = pickle.loads(pickle.dumps(wide_encoding.polynomial))
        if derive == "monomials":
            self._raises_promptly(lambda: polynomial.monomials)
        else:
            self._raises_promptly(polynomial.render)


class TestDeadlineNeutrality:
    """Satellite: under-deadline requests are byte-identical modulo timing."""

    @pytest.mark.parametrize("backend", backend_names())
    def test_generous_deadline_changes_nothing(self, backend):
        requests = mixed_requests(8, seed=13, verify_certificates=False)
        plain = Session(backend=backend)
        bounded = Session(backend=backend, limits=Limits(deadline_ms=120_000))
        baseline = list(plain.batch(requests, capture_errors=True))
        guarded = list(bounded.batch(requests, capture_errors=True))
        assert len(baseline) == len(guarded) == len(requests)
        for request, a, b in zip(requests, baseline, guarded):
            assert a.request is request and b.request is request
            assert b.degraded is None
            assert a.degraded is None
            assert a.verdict == b.verdict
            assert a.certificate == b.certificate
            assert (type(a.error), str(a.error)) == (type(b.error), str(b.error))
            if a.value is not None:
                assert a.value == b.value
            else:
                assert b.value is None
