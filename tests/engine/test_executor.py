"""Unit tests for the interned executor: modes, stats, and early exit."""

from repro.engine import InternedBackend
from repro.engine.interned import (
    ExecutionStats,
    compile_interned_plan,
    interned_count,
    interned_exists,
    interned_iterate,
)
from repro.engine.interning import InternedTarget, TermDictionary
from repro.relational.atoms import Atom
from repro.relational.terms import Constant, Variable

x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b, c = Constant("a"), Constant("b"), Constant("c")


def compile_plan(source, target, fixed_variables=()):
    """Compile *source* against a fresh dictionary; returns ``(plan, dictionary)``."""
    dictionary = TermDictionary()
    plan = compile_interned_plan(
        dictionary,
        InternedTarget(dictionary, target),
        source,
        frozenset(fixed_variables),
        {},
    )
    return plan, dictionary


def _path_facts(n: int) -> list[Atom]:
    nodes = [Constant(f"n{i}") for i in range(n + 1)]
    return [Atom("R", (nodes[i], nodes[i + 1])) for i in range(n)]


class TestModes:
    def test_iterate_yields_substitutions_with_fixed_included(self):
        plan, dictionary = compile_plan([Atom("R", (x, y))], [Atom("R", (a, b))], [x])
        (solution,) = list(interned_iterate(plan, dictionary, {x: a}))
        assert solution.apply_term(x) == a
        assert solution.apply_term(y) == b

    def test_count_matches_iterate(self):
        plan, dictionary = compile_plan([Atom("R", (x, y)), Atom("R", (y, z))], _path_facts(6))
        assert interned_count(plan, dictionary) == len(list(interned_iterate(plan, dictionary))) == 5

    def test_exists_on_empty_target(self):
        plan, dictionary = compile_plan([Atom("R", (x, y))], [])
        assert interned_exists(plan, dictionary) is False
        assert interned_count(plan, dictionary) == 0

    def test_empty_source_yields_the_fixed_bindings_once(self):
        plan, dictionary = compile_plan([], [Atom("R", (a, b))])
        solutions = list(interned_iterate(plan, dictionary, {x: a}))
        assert len(solutions) == 1
        assert solutions[0].apply_term(x) == a

    def test_repeated_variable_within_atom(self):
        plan, dictionary = compile_plan(
            [Atom("R", (x, x))], [Atom("R", (a, b)), Atom("R", (b, b))]
        )
        (solution,) = list(interned_iterate(plan, dictionary))
        assert solution.apply_term(x) == b


class TestEarlyExit:
    def test_exists_stops_at_the_first_solution(self):
        # 50 facts, 50 solutions: exists must not visit them all.
        facts = [Atom("R", (Constant(f"u{i}"), Constant(f"v{i}"))) for i in range(50)]
        plan, dictionary = compile_plan([Atom("R", (x, y))], facts)
        stats = ExecutionStats()
        assert interned_exists(plan, dictionary, stats=stats)
        assert stats.candidates_tried == 1
        assert stats.solutions_found == 1

    def test_count_visits_everything(self):
        facts = [Atom("R", (Constant(f"u{i}"), Constant(f"v{i}"))) for i in range(50)]
        plan, dictionary = compile_plan([Atom("R", (x, y))], facts)
        stats = ExecutionStats()
        assert interned_count(plan, dictionary, stats=stats) == 50
        assert stats.candidates_tried == 50

    def test_has_homomorphism_routes_through_exists_mode(self):
        """Regression: ``has_homomorphism`` must not enumerate all solutions.

        The pre-engine implementation built full substitutions and took the
        first; with a join producing quadratically many homomorphisms the
        exists mode must touch a bounded prefix of the search only.
        """
        from repro.evaluation.homomorphisms import count_homomorphisms, has_homomorphism
        from repro.session import Session

        hub = Constant("hub")
        facts = [Atom("R", (hub, Constant(f"s{i}"))) for i in range(40)]
        facts += [Atom("S", (hub, Constant(f"t{i}"))) for i in range(40)]
        source = [Atom("R", (x, y)), Atom("S", (x, z))]

        # A fresh session owns a fresh backend, so no earlier memoised
        # result can answer for the executor.
        session = Session(backend="interned")
        backend = session.backend
        assert isinstance(backend, InternedBackend)
        assert backend.stats is not None
        with session.activate():
            assert has_homomorphism(source, facts)
            tried = backend.stats.candidates_tried
            assert backend.stats.executions == 1
            # 1600 homomorphisms exist; the early exit needs one per join level.
            assert count_homomorphisms(source, facts) == 1600
        assert 0 < tried <= len(source) + 1

    def test_failed_static_filter_ends_the_run_before_any_search(self):
        # R(x, x) with x fixed hoists to a static filter; a miss there must
        # stop the execution before the search step over S is entered.
        source = [Atom("R", (x, x)), Atom("S", (x, y))]
        target = [Atom("R", (a, b))] + [Atom("S", (a, Constant(f"v{i}"))) for i in range(20)]
        plan, dictionary = compile_plan(source, target, [x])
        assert plan.static_steps
        stats = ExecutionStats()
        assert interned_count(plan, dictionary, {x: a}, stats=stats) == 0
        assert stats.candidates_tried == 0


class TestStats:
    def test_abandoned_iteration_still_records_its_stats(self):
        facts = [Atom("R", (Constant(f"u{i}"), Constant(f"v{i}"))) for i in range(10)]
        plan, dictionary = compile_plan([Atom("R", (x, y))], facts)
        stats = ExecutionStats()
        solutions = interned_iterate(plan, dictionary, stats=stats)
        next(solutions)
        solutions.close()
        assert stats.executions == 1
        assert stats.solutions_found == 1

    def test_fixed_binding_to_an_absent_term_finds_nothing(self):
        plan, dictionary = compile_plan([Atom("R", (x, y))], [Atom("R", (a, b))], [x])
        stats = ExecutionStats()
        assert interned_count(plan, dictionary, {x: Constant("absent")}, stats=stats) == 0
        assert interned_exists(plan, dictionary, {x: a})
        assert stats.solutions_found == 0

    def test_merge_accumulates(self):
        first = ExecutionStats(candidates_tried=2, solutions_found=1, executions=1)
        second = ExecutionStats(candidates_tried=3, solutions_found=0, executions=1)
        first.merge(second)
        assert (first.candidates_tried, first.solutions_found, first.executions) == (5, 1, 2)
