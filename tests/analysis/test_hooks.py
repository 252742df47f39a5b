"""Online verification hooks: session flag, counters, campaign reporting."""

import pytest

from repro.analysis import hooks
from repro.exceptions import PlanVerificationError
from repro.queries.parser import parse_cq
from repro.session import Session


@pytest.fixture(autouse=True)
def _reset_counts():
    hooks.reset_verification_counts()
    yield
    hooks.reset_verification_counts()


Q1 = parse_cq("q(x,y) :- e(x,y), e(y,x)")
Q2 = parse_cq("q(x,y) :- e(x,y)")


class TestContextFlag:
    def test_disabled_by_default(self):
        assert not hooks.verification_enabled()

    def test_context_manager_sets_and_restores(self):
        with hooks.debug_verify_plans():
            assert hooks.verification_enabled()
            with hooks.debug_verify_plans(False):
                assert not hooks.verification_enabled()
            assert hooks.verification_enabled()
        assert not hooks.verification_enabled()

    def test_token_api_round_trips(self):
        token = hooks.set_enabled(True)
        assert hooks.verification_enabled()
        hooks.reset(token)
        assert not hooks.verification_enabled()


class TestSessionIntegration:
    def test_decisions_are_verified_when_enabled(self):
        session = Session(backend="interned", debug_verify_plans=True)
        outcome = session.decide(Q2, Q1)
        assert outcome.value is not None
        plans, violations = hooks.verification_counts()
        assert plans > 0
        assert violations == 0

    def test_flag_off_verifies_nothing(self):
        session = Session(backend="interned")
        session.decide(Q2, Q1)
        assert hooks.verification_counts() == (0, 0)

    def test_flag_does_not_leak_outside_activation(self):
        session = Session(backend="interned", debug_verify_plans=True)
        with session.activate():
            assert hooks.verification_enabled()
        assert not hooks.verification_enabled()

    def test_spec_round_trips_the_flag(self):
        session = Session(backend="interned", debug_verify_plans=True)
        spec = session.spec()
        assert spec.debug_verify_plans is True
        rebuilt = spec.build()
        assert rebuilt.debug_verify_plans is True
        assert Session(backend="naive").spec().debug_verify_plans is False

    def test_evaluation_and_mpi_paths_are_covered(self):
        from repro.relational.instances import BagInstance
        from repro.relational.atoms import Atom
        from repro.relational.terms import Constant

        session = Session(backend="interned", debug_verify_plans=True)
        instance = BagInstance({Atom("e", (Constant("a"), Constant("b"))): 2})
        session.evaluate(Q2, instance)
        assert hooks.verification_counts()[0] > 0


class TestRaisingChecks:
    def test_check_plan_raises_with_violations(self):
        from repro.engine import EngineCache, create_backend

        backend = create_backend("interned", cache=EngineCache())
        plan = backend.plan(Q1.body_atoms(), Q2.body_atoms(), frozenset())
        with pytest.raises(PlanVerificationError) as excinfo:
            hooks.check_plan(
                plan,
                source_atoms=parse_cq("q() :- zzz(a)").body_atoms(),
                dictionary=backend.dictionary,
            )
        assert excinfo.value.violations
        assert hooks.verification_counts()[1] == len(excinfo.value.violations)

    def test_check_plan_passes_a_clean_plan_and_counts_it(self):
        from repro.engine import EngineCache, create_backend

        backend = create_backend("interned", cache=EngineCache())
        plan = backend.plan(Q1.body_atoms(), Q2.body_atoms(), frozenset())
        hooks.check_plan(
            plan,
            source_atoms=Q1.body_atoms(),
            fixed_variables=frozenset(),
            dictionary=backend.dictionary,
        )
        assert hooks.verification_counts() == (1, 0)

    def test_memoised_plans_are_reverified_on_retrieval(self):
        from repro.engine import EngineCache, create_backend

        backend = create_backend("interned", cache=EngineCache())
        source, target = Q1.body_atoms(), Q2.body_atoms()
        with hooks.debug_verify_plans():
            first = backend.plan(source, target, frozenset())
            assert backend.plan(source, target, frozenset()) is first
        assert hooks.verification_counts() == (2, 0)

    def test_corrupted_memoised_plan_is_rejected_online(self):
        from repro.engine import EngineCache, create_backend

        backend = create_backend("interned", cache=EngineCache())
        source, target = Q1.body_atoms(), Q2.body_atoms()
        plan = backend.plan(source, target, frozenset())
        step = (plan.static_steps + plan.steps)[-1]
        # InternedStep uses __slots__: corrupt the cached step in place.
        type(step).__init__(
            step, step.atom, step.group, step.bucket, step.key_ops[:-1], step.new_ops, step.counter
        )
        with hooks.debug_verify_plans():
            with pytest.raises(PlanVerificationError):
                backend.plan(source, target, frozenset())
        plans, violations = hooks.verification_counts()
        assert plans == 1 and violations > 0


class TestCampaignReporting:
    def test_verify_pseudo_layer_rides_the_snapshot(self):
        session = Session(backend="interned")
        report = session.fuzz(
            cases=3,
            seed=0,
            debug_verify_plans=True,
            mutation_rate=0.0,
            shrink_failures=False,
        ).value
        assert "verify" in report.engine_stats
        plans, violations = report.engine_stats["verify"]
        assert plans > 0
        assert violations == 0
        assert "verify" in report.describe()

    def test_session_flag_defaults_the_campaign_flag(self):
        session = Session(backend="interned", debug_verify_plans=True)
        report = session.fuzz(
            cases=2, seed=1, mutation_rate=0.0, shrink_failures=False
        ).value
        assert report.config.debug_verify_plans is True
        assert "verify" in report.engine_stats

    def test_plain_campaign_has_no_verify_layer(self):
        session = Session(backend="interned")
        report = session.fuzz(
            cases=2, seed=1, mutation_rate=0.0, shrink_failures=False
        ).value
        assert "verify" not in report.engine_stats
