"""Fixture tests for the lint framework and every built-in rule."""

import textwrap
from pathlib import Path

import pytest

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

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/engine/fingerprints.py",
            "src/repro/engine/persist.py",
            "src/repro/io/json_codec.py",
        ],
    )
    def test_every_scoped_module_is_checked(self, path):
        source = "def f(items):\n    return [i for i in set(items)]\n"
        assert codes(run(source, path)) == ["set-order-iteration"]

    def test_set_literal_and_set_comprehension_iterables_are_flagged(self):
        source = """
        def f(a, b, items):
            for item in {a, b}:
                yield item
            for item in {i for i in items}:
                yield item
        """
        findings = run(source, self.PATH)
        assert codes(findings) == ["set-order-iteration"] * 2
        assert [finding.line for finding in findings] == [3, 5]

    def test_async_for_and_generator_over_set_are_flagged(self):
        source = """
        async def f(items):
            async for item in set(items):
                yield item

        def g(items):
            return b",".join(i for i in frozenset(items))
        """
        assert codes(run(source, self.PATH)) == ["set-order-iteration"] * 2

    def test_guards_the_digest_canonicaliser_that_taint_treats_as_clean(self):
        # determinism-taint treats persistent_digest as a sanitizer and sees
        # no sink inside the canonical encoder, so a raw set iteration in
        # the encoder's body is this rule's alone to catch.
        source = """
        import hashlib

        def _encode_canonical(obj):
            if isinstance(obj, (set, frozenset)):
                return b",".join(_encode_canonical(i) for i in frozenset(obj))
            return repr(obj).encode()

        def persistent_digest(obj):
            return hashlib.sha256(_encode_canonical(obj)).hexdigest()
        """
        findings = run(source, self.PATH)
        assert codes(findings) == ["set-order-iteration"]
        assert findings[0].line == 6


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

    def test_async_and_constructor_call_defaults(self):
        assert codes(run("async def f(a=[]):\n    pass\n")) == ["mutable-default"]
        assert codes(run("def f(a=collections.deque()):\n    pass\n")) == ["mutable-default"]
        assert codes(run("def f(a=defaultdict(list)):\n    pass\n")) == ["mutable-default"]
        assert run("def f(a=frozenset(), b=tuple()):\n    pass\n") == []

    def test_called_and_qualified_dataclass_decorators(self):
        source = """
        import dataclasses

        @dataclasses.dataclass(frozen=True)
        class Config:
            names: list = [i for i in range(3)]
            label: str = "x"
        """
        findings = run(source)
        assert codes(findings) == ["mutable-default"]
        assert findings[0].line == 6


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

    def test_comprehensions_and_qualified_constructors_are_flagged(self):
        assert codes(run("SQUARES = [i * i for i in range(4)]\n")) == ["global-mutable-state"]
        assert codes(run("INDEX = {k: 0 for k in 'ab'}\n")) == ["global-mutable-state"]
        assert codes(run("ORDER = collections.OrderedDict()\n")) == ["global-mutable-state"]

    def test_declaration_without_a_value_is_clean(self):
        assert run("CACHE: dict\n") == []


class TestBareExcept:
    def test_bare_except_is_flagged(self):
        source = "def f():\n    try:\n        return 1\n    except:\n        return 2\n"
        assert "bare-except" in codes(run(source))

    def test_each_bare_handler_is_reported_at_its_line(self):
        source = """
        try:
            import fast
        except:
            fast = None

        class C:
            def f(self):
                try:
                    return 1
                except ValueError:
                    return 2
                except:
                    return 3
        """
        findings = run(source)
        assert codes(findings) == ["bare-except"] * 2
        assert [finding.line for finding in findings] == [4, 13]

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
        }

    def test_every_rule_has_an_audit_row_and_a_catalog_section(self):
        docs = Path(__file__).resolve().parents[2] / "docs" / "static-analysis.md"
        text = docs.read_text(encoding="utf-8")
        for rule in default_rules():
            assert f"| `{rule.name}` |" in text, f"{rule.name} missing from the audit"
            assert f"### `{rule.name}`" in text, f"{rule.name} has no catalog section"

    def test_repro_package_tree_is_lint_clean(self):
        findings = lint_paths()
        assert findings == [], "\n".join(finding.describe() for finding in findings)
