"""The fork/pickle-safety analyzers against their seeded-defect corpus."""

import ast
import textwrap
from pathlib import Path

from repro.analysis.forksafety import (
    analyze_module,
    shared_state_findings,
    unpicklable_findings,
)

FIXTURE = Path(__file__).parent / "fixtures" / "fork_fixtures.py"


def functions_with_findings(tree):
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            spans[node.name] = (node.lineno, node.end_lineno)
    flagged = set()
    for line, _message in analyze_module(tree):
        owners = [
            name for name, (start, end) in spans.items() if start <= line <= end
        ]
        assert owners, f"finding at line {line} outside every fixture function"
        flagged.add(owners[0])
    return flagged


def unpicklable(source):
    return list(unpicklable_findings(ast.parse(textwrap.dedent(source))))


def shared(source):
    return list(shared_state_findings(ast.parse(textwrap.dedent(source))))


class TestSeededCorpus:
    def test_exactly_the_bad_fixtures_are_reported(self):
        tree = ast.parse(FIXTURE.read_text(encoding="utf-8"))
        names = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        bad = {name for name in names if name.startswith("bad_")}
        clean = {name for name in names if name.startswith("clean_")}
        assert len(bad) >= 5 and len(clean) >= 5  # corpus floor from the issue
        assert functions_with_findings(tree) == bad


class TestUnpicklable:
    def test_literal_lambda_argument(self):
        findings = unpicklable("""
        def f(jobs):
            return parallel_batch(lambda j: j, jobs)
        """)
        assert len(findings) == 1
        assert "lambda" in findings[0][1]

    def test_nested_def_by_name(self):
        findings = unpicklable("""
        def f(jobs):
            def worker(j):
                return j
            return parallel_batch(worker, jobs)
        """)
        assert len(findings) == 1
        assert "local scope" in findings[0][1]

    def test_open_handle_through_with(self):
        findings = unpicklable("""
        def f(jobs, path):
            with open(path) as log:
                return parallel_batch(jobs, log=log)
        """)
        assert len(findings) == 1
        assert "open file handle" in findings[0][1]

    def test_local_class_instance(self):
        findings = unpicklable("""
        def f(backend):
            class Limits:
                rows = 1
            return SessionSpec(backend=backend, limits=Limits())
        """)
        assert len(findings) == 1
        assert "class defined in a local scope" in findings[0][1]

    def test_partial_wrapping_lambda(self):
        findings = unpicklable("""
        def f(jobs):
            fn = partial(lambda j: j, 1)
            return parallel_batch(fn, jobs)
        """)
        assert len(findings) == 1

    def test_rebinding_to_module_callable_is_clean(self):
        assert unpicklable("""
        def f(jobs):
            fn = lambda j: j
            fn = module_worker
            return parallel_batch(fn, jobs)
        """) == []

    def test_module_level_def_is_picklable(self):
        assert unpicklable("""
        def worker(j):
            return j

        def f(jobs):
            return parallel_batch(worker, jobs)
        """) == []

    def test_branch_assigned_lambda_is_a_may_finding(self):
        findings = unpicklable("""
        def f(jobs, flag):
            if flag:
                fn = lambda j: j
            else:
                fn = module_worker
            return parallel_batch(fn, jobs)
        """)
        assert len(findings) == 1


class TestSharedState:
    def test_global_rebinding_in_worker_root(self):
        findings = shared("""
        COUNT = 0

        def init():
            global COUNT
            COUNT = 1

        def f(jobs):
            return parallel_batch(jobs, initializer=init)
        """)
        assert len(findings) == 1
        assert "rebinds module-global COUNT" in findings[0][1]

    def test_container_write_reachable_through_call_graph(self):
        findings = shared("""
        CACHE = {}

        def helper(job):
            CACHE[job.key] = job

        def worker(job):
            return helper(job)

        def f(jobs):
            return parallel_batch(worker, jobs)
        """)
        assert len(findings) == 1
        assert "CACHE" in findings[0][1]

    def test_mutator_method_is_reported(self):
        findings = shared("""
        SEEN = []

        def worker(job):
            SEEN.append(job)

        def f(jobs):
            return parallel_batch(worker, jobs)
        """)
        assert len(findings) == 1
        assert "append" in findings[0][1]

    def test_unrooted_writer_is_clean(self):
        assert shared("""
        CACHE = {}

        def writer(job):
            CACHE[job.key] = job
        """) == []

    def test_local_shadow_is_clean(self):
        assert shared("""
        CACHE = {}

        def worker(job):
            CACHE = {}
            CACHE[job.key] = job
            return CACHE

        def f(jobs):
            return parallel_batch(worker, jobs)
        """) == []

    def test_module_without_boundary_calls_is_skipped(self):
        assert shared("""
        STATE = {}

        def mutate():
            global STATE
            STATE = {}
        """) == []
