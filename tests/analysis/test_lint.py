"""Fixture tests for the lint framework and every built-in rule."""

import textwrap

from repro.analysis.lint import (
    LintRule,
    default_rules,
    iter_source_files,
    lint_paths,
    lint_source,
)


def run(source, path="src/repro/some/module.py", rules=None):
    return lint_source(textwrap.dedent(source), path, rules)


def codes(findings):
    return [finding.rule for finding in findings]


class TestFramework:
    def test_clean_source_has_no_findings(self):
        assert run("x = 1\n\n\ndef f(a):\n    return a\n") == []

    def test_syntax_error_is_a_finding_not_a_crash(self):
        findings = run("def broken(:\n")
        assert codes(findings) == ["syntax-error"]

    def test_findings_are_sorted_by_line(self):
        source = """
        def f(a={}):
            pass

        def g(b=[]):
            pass
        """
        lines = [finding.line for finding in run(source)]
        assert lines == sorted(lines)

    def test_rule_scope_restricts_paths(self):
        probe = LintRule(
            name="probe", summary="", check=lambda ctx: [(1, "hit")], scope=("engine/",)
        )
        assert codes(lint_source("x = 1", "src/repro/engine/plan.py", [probe])) == ["probe"]
        assert lint_source("x = 1", "src/repro/queries/cq.py", [probe]) == []

    def test_describe_format(self):
        finding = run("def f(a=[]):\n    pass\n")[0]
        assert finding.describe().startswith("src/repro/some/module.py:1: [mutable-default]")

    def test_iter_source_files_skips_hidden_dirs(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "b.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        files = iter_source_files([tmp_path])
        assert [file.name for file in files] == ["a.py"]


class TestSuppressions:
    def test_justified_suppression_silences_the_rule(self):
        source = "STATE = {}  # lint: disable=global-mutable-state -- test-only registry\n"
        assert run(source) == []

    def test_unjustified_suppression_is_reported_and_ineffective(self):
        source = "STATE = {}  # lint: disable=global-mutable-state\n"
        assert sorted(codes(run(source))) == ["bad-suppression", "global-mutable-state"]

    def test_suppression_only_covers_its_own_line(self):
        source = (
            "A = {}  # lint: disable=global-mutable-state -- fine\n"
            "B = {}\n"
        )
        findings = run(source)
        assert codes(findings) == ["global-mutable-state"]
        assert findings[0].line == 2

    def test_multiple_rules_in_one_comment(self):
        source = (
            "STATE = {}  # lint: disable=global-mutable-state,other-rule -- shared fixture\n"
        )
        assert run(source) == []


class TestSetOrderIteration:
    PATH = "src/repro/engine/fingerprints.py"

    def test_for_over_set_call_is_flagged(self):
        source = """
        def f(items):
            for item in set(items):
                yield item
        """
        assert "set-order-iteration" in codes(run(source, self.PATH))

    def test_comprehension_over_frozenset_is_flagged(self):
        source = "def f(items):\n    return [i for i in frozenset(items)]\n"
        assert "set-order-iteration" in codes(run(source, self.PATH))

    def test_sorted_wrapper_is_clean(self):
        source = """
        def f(items):
            for item in sorted(set(items)):
                yield item
        """
        assert run(source, self.PATH) == []

    def test_rule_is_scoped_to_determinism_paths(self):
        source = "def f(items):\n    return [i for i in set(items)]\n"
        assert run(source, "src/repro/workloads/random_queries.py") == []


class TestMutableDefault:
    def test_function_defaults(self):
        assert "mutable-default" in codes(run("def f(a=[]):\n    pass\n"))
        assert "mutable-default" in codes(run("def f(*, a={}):\n    pass\n"))
        assert "mutable-default" in codes(run("def f(a=dict()):\n    pass\n"))
        assert run("def f(a=None, b=(), c=1):\n    pass\n") == []

    def test_dataclass_fields(self):
        source = """
        from dataclasses import dataclass, field

        @dataclass
        class Config:
            bad: dict = {}
        """
        assert "mutable-default" in codes(run(source))
        good = """
        from dataclasses import dataclass, field

        @dataclass
        class Config:
            good: dict = field(default_factory=dict)
        """
        assert run(good) == []

    def test_plain_class_attributes_are_not_dataclass_fields(self):
        assert run("class C:\n    shared = {}\n") == []


class TestGlobalMutableState:
    def test_module_level_mutables_are_flagged(self):
        assert "global-mutable-state" in codes(run("CACHE = {}\n"))
        assert "global-mutable-state" in codes(run("SEEN: set = set()\n"))
        assert "global-mutable-state" in codes(run("PAIRS = [(1, 2)]\n"))

    def test_immutables_and_dunders_are_clean(self):
        assert run("NAMES = ('a', 'b')\nLIMIT = 3\n__all__ = ['NAMES']\n") == []

    def test_former_registry_modules_are_not_exempt(self):
        for path in ("src/repro/engine/backends.py", "src/repro/core/decision.py"):
            assert codes(run("REGISTRY = {}\n", path)) == ["global-mutable-state"]

    def test_read_only_mapping_constants_are_clean(self):
        source = "from types import MappingProxyType\n\nTABLE = MappingProxyType({'a': 1})\n"
        assert run(source, "src/repro/engine/backends.py") == []

    def test_function_locals_are_not_module_level(self):
        assert run("def f():\n    local = {}\n    return local\n") == []


class TestBareExcept:
    def test_bare_except_is_flagged(self):
        source = "def f():\n    try:\n        return 1\n    except:\n        return 2\n"
        assert "bare-except" in codes(run(source))

    def test_typed_except_is_clean(self):
        source = "def f():\n    try:\n        return 1\n    except ValueError:\n        return 2\n"
        assert run(source) == []


class TestRepoIsClean:
    def test_default_rules_are_registered(self):
        names = {rule.name for rule in default_rules()}
        assert names == {
            "set-order-iteration",
            "mutable-default",
            "global-mutable-state",
            "bare-except",
            "determinism-taint",
            "fork-unpicklable",
            "fork-shared-state",
        }

    def test_repro_package_tree_is_lint_clean(self):
        findings = lint_paths()
        assert findings == [], "\n".join(finding.describe() for finding in findings)
