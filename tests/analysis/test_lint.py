"""Fixture tests for the lint framework and every built-in rule."""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import (
    LintContext,
    LintRule,
    LintStats,
    default_rules,
    iter_source_files,
    lint_paths,
    lint_paths_timed,
    lint_source,
)
from repro.analysis.rules import PERSIST_SCHEMA


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
        # set-order-iteration runs first but reports the later line.
        source = """
        CACHE = {}

        def f(items):
            for item in set(items):
                yield item
        """
        findings = run(source, "src/repro/engine/fingerprints.py")
        assert codes(findings) == ["global-mutable-state", "set-order-iteration"]
        assert [finding.line for finding in findings] == [2, 5]

    def test_rule_scope_restricts_paths(self):
        probe = LintRule(
            name="probe", summary="", check=lambda ctx: [(1, "hit")], scope=("engine/",)
        )
        assert codes(lint_source("x = 1", "src/repro/engine/plan.py", [probe])) == ["probe"]
        assert lint_source("x = 1", "src/repro/queries/cq.py", [probe]) == []

    def test_describe_format(self):
        finding = run("CACHE = {}\n")[0]
        assert finding.describe().startswith("src/repro/some/module.py:1: [global-mutable-state]")

    def test_iter_source_files_skips_hidden_dirs(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "b.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        files = iter_source_files([tmp_path])
        assert [file.name for file in files] == ["a.py"]

    def test_iter_source_files_takes_files_and_dedupes(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        files = iter_source_files(
            [tmp_path / "a.py", tmp_path, tmp_path / "a.py", tmp_path / "notes.txt"]
        )
        assert [file.name for file in files] == ["a.py"]

    def test_empty_source_is_clean(self):
        assert run("") == []

    def test_syntax_error_reports_the_offending_line(self):
        (finding,) = run("x = 1\ndef broken(:\n")
        assert (finding.rule, finding.line) == ("syntax-error", 2)
        assert finding.message.startswith("does not parse:")

    def test_findings_on_one_line_are_sorted_by_rule(self):
        source = "CACHE = [key for key in set('ab')]\n"
        findings = run(source, "src/repro/engine/fingerprints.py")
        assert codes(findings) == ["global-mutable-state", "set-order-iteration"]
        assert {finding.line for finding in findings} == {1}

    def test_no_rules_means_no_rule_findings(self):
        assert lint_source("CACHE = {}\n", "src/repro/some/module.py", []) == []

    def test_default_rules_are_used_when_none_are_given(self):
        source = "CACHE = {}\n"
        assert run(source) == run(source, rules=default_rules())

    def test_unscoped_rule_applies_everywhere(self):
        probe = LintRule(name="probe", summary="", check=lambda ctx: ())
        assert probe.applies("anything.py")
        assert probe.applies("src/repro/engine/plan.py")

    def test_rule_scope_accepts_windows_separators(self):
        probe = LintRule(name="probe", summary="", check=lambda ctx: (), scope=("engine/",))
        assert probe.applies("src\\repro\\engine\\plan.py")
        assert not probe.applies("src\\repro\\queries\\cq.py")

    def test_node_index_is_built_once_and_shared(self):
        tree = ast.parse("a = b\nc = d\n")
        context = LintContext(path="m.py", tree=tree, lines=("a = b", "c = d"))
        names = context.nodes(ast.Name)
        assert [node.id for node in names] == ["a", "b", "c", "d"]
        assert context.nodes(ast.Name) is names

    def test_nodes_of_several_types_come_in_document_order(self):
        source = "def f():\n    for x in y:\n        pass\n\nz = [i for i in w]\n"
        context = LintContext(path="m.py", tree=ast.parse(source), lines=())
        found = context.nodes(ast.ListComp, ast.For)
        assert [type(node).__name__ for node in found] == ["For", "ListComp"]
        assert context.nodes(ast.While) == ()

    def test_a_broken_file_does_not_hide_findings_elsewhere(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        (tmp_path / "state.py").write_text("CACHE = {}\n")
        findings = lint_paths([tmp_path])
        assert codes(findings) == ["syntax-error", "global-mutable-state"]

    def test_paths_under_the_working_directory_are_shown_relative(
        self, tmp_path, monkeypatch
    ):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "state.py").write_text("CACHE = {}\n")
        monkeypatch.chdir(tmp_path)
        (finding,) = lint_paths([tmp_path / "pkg"])
        assert finding.path == "pkg/state.py"

    def test_timed_run_counts_files_and_rules(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("y = 2\n")
        findings, stats = lint_paths_timed([tmp_path])
        assert findings == []
        assert (stats.files, stats.rules) == (2, len(default_rules()))
        assert stats.parse_seconds >= 0 and stats.check_seconds >= 0

    @pytest.mark.parametrize("rules, phrase", [(1, "with 1 rule in"), (2, "with 2 rules in")])
    def test_stats_describe_counts_rules(self, rules, phrase):
        stats = LintStats(files=3, rules=rules, parse_seconds=0.25, check_seconds=0.5)
        text = stats.describe()
        assert text.startswith("checked 3 files")
        assert phrase in text
        assert "in 0.75s (parse 0.25s, rules 0.50s" in text


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
            "STATE = {}  # lint: disable=global-mutable-state,set-order-iteration"
            " -- shared fixture\n"
        )
        assert run(source) == []

    @pytest.mark.parametrize("name", ["determinism-taint", "bare-except", "no-such-rule"])
    def test_suppression_naming_an_unknown_rule_is_reported(self, name):
        source = f"STATE = {{}}  # lint: disable=global-mutable-state,{name} -- stale\n"
        findings = run(source)
        assert codes(findings) == ["bad-suppression"]
        assert findings[0].line == 1
        assert f"unknown rule(s) {name}" in findings[0].message

    def test_suppression_text_inside_a_string_is_not_a_suppression(self):
        source = 'CACHE = {}; HELP = "# lint: disable=global-mutable-state -- no"\n'
        assert codes(run(source)) == ["global-mutable-state"]
        assert run('HELP = "# lint: disable=no-such-rule -- an example"\n') == []

    def test_suppression_may_name_the_schema_lock_and_caller_rules(self):
        probe = LintRule(name="probe", summary="", check=lambda ctx: [(1, "hit")])
        source = "x = 1  # lint: disable=probe,persist-schema -- fixture\n"
        assert lint_source(source, "src/repro/some/module.py", [probe]) == []

    def test_suppression_may_name_a_rule_outside_the_selection(self):
        # repro lint --rule NAME passes a subset; the others stay known.
        (selected,) = [rule for rule in default_rules() if rule.name == "set-order-iteration"]
        source = "STATE = {}  # lint: disable=global-mutable-state -- test-only registry\n"
        assert run(source, rules=[selected]) == []

    def test_suppressing_another_rule_does_not_silence_this_one(self):
        source = "CACHE = {}  # lint: disable=set-order-iteration -- wrong rule\n"
        assert codes(run(source)) == ["global-mutable-state"]

    @pytest.mark.parametrize(
        "comment",
        [
            "#lint:disable=global-mutable-state --cleared per session",
            "#  lint:  disable=global-mutable-state  --  cleared per session",
            "# lint: disable=global-mutable-state, -- cleared per session",
        ],
    )
    def test_suppression_spacing_variants_are_accepted(self, comment):
        assert run(f"CACHE = {{}}  {comment}\n") == []

    @pytest.mark.parametrize(
        "tail",
        ["", " --", " --   ", " - cleared per session", " cleared per session"],
    )
    def test_justification_needs_text_after_a_double_dash(self, tail):
        source = f"CACHE = {{}}  # lint: disable=global-mutable-state{tail}\n"
        assert sorted(codes(run(source))) == ["bad-suppression", "global-mutable-state"]

    def test_a_comment_line_does_not_cover_the_next_line(self):
        source = "# lint: disable=global-mutable-state -- meant for the next line\nCACHE = {}\n"
        findings = run(source)
        assert codes(findings) == ["global-mutable-state"]
        assert findings[0].line == 2

    def test_suppression_must_sit_on_the_reported_line(self):
        # global-mutable-state reports the statement's first line.
        source = "CACHE = {\n    'a': 1,\n}  # lint: disable=global-mutable-state -- too late\n"
        findings = run(source)
        assert codes(findings) == ["global-mutable-state"]
        assert findings[0].line == 1

    def test_the_meta_check_cannot_be_suppressed(self):
        findings = run("x = 1  # lint: disable=bad-suppression -- hush\n")
        assert codes(findings) == ["bad-suppression"]
        assert "unknown rule(s) bad-suppression" in findings[0].message

    def test_suppressions_are_checked_in_a_file_that_does_not_parse(self):
        source = "CACHE = {}  # lint: disable=global-mutable-state\ndef broken(:\n"
        findings = run(source)
        assert [(finding.rule, finding.line) for finding in findings] == [
            ("bad-suppression", 1),
            ("syntax-error", 2),
        ]


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

    def test_flags_set_iteration_inside_the_digest_canonicaliser(self):
        # A raw set iteration inside the canonical encoder would make
        # persistent_digest depend on the hash seed.
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

    def test_dict_and_set_comprehensions_over_sets_are_flagged(self):
        source = """
        def f(items):
            index = {key: 0 for key in set(items)}
            seen = {key for key in frozenset(items)}
            return index, seen
        """
        findings = run(source, self.PATH)
        assert codes(findings) == ["set-order-iteration"] * 2
        assert [finding.line for finding in findings] == [3, 4]

    def test_inner_generator_over_a_set_is_flagged(self):
        source = "def f(items, other):\n    return [(a, b) for a in items for b in set(other)]\n"
        assert codes(run(source, self.PATH)) == ["set-order-iteration"]

    def test_sorted_comprehension_is_clean(self):
        source = "def f(items):\n    return [i for i in sorted(frozenset(items))]\n"
        assert run(source, self.PATH) == []

    def test_ordered_containers_are_clean(self):
        source = """
        def f(items, table):
            for item in list(items):
                yield item
            for key in dict(table):
                yield key
            yield from (i for i in tuple(items))
        """
        assert run(source, self.PATH) == []

    def test_membership_test_against_a_set_is_clean(self):
        source = "def f(x, items):\n    return x in set(items)\n"
        assert run(source, self.PATH) == []

    def test_justified_suppression_silences_a_scoped_iteration(self):
        source = (
            "def f(items):\n"
            "    return sum(i for i in set(items))"
            "  # lint: disable=set-order-iteration -- a sum is order-free\n"
        )
        assert run(source, self.PATH) == []

    @pytest.mark.parametrize(
        "path",
        [
            "/checkout/src/repro/io/json_codec.py",
            "src\\repro\\engine\\persist.py",
        ],
    )
    def test_scope_matches_absolute_and_windows_paths(self, path):
        source = "def f(items):\n    return [i for i in set(items)]\n"
        assert codes(run(source, path)) == ["set-order-iteration"]


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

    @pytest.mark.parametrize(
        "value",
        ["bytearray()", "deque()", "defaultdict(list)", "Counter()", "collections.deque()"],
    )
    def test_mutable_constructors_are_flagged(self, value):
        assert codes(run(f"STATE = {value}\n")) == ["global-mutable-state"]

    @pytest.mark.parametrize(
        "value",
        ["frozenset({1})", "tuple([1, 2])", "MappingProxyType({})", "range(3)", "'text'"],
    )
    def test_immutable_values_are_clean(self, value):
        assert run(f"CONSTANT = {value}\n") == []

    def test_chained_assignment_names_every_target(self):
        (finding,) = run("FIRST = SECOND = []\n")
        assert "module-level mutable state FIRST, SECOND" in finding.message

    def test_a_dunder_beside_a_plain_name_is_still_flagged(self):
        assert codes(run("__cache__ = CACHE = {}\n")) == ["global-mutable-state"]

    def test_class_attributes_are_not_module_level(self):
        assert run("class Registry:\n    entries = []\n") == []

    def test_annotated_mutable_is_reported_at_its_line(self):
        (finding,) = run("import typing\n\nNAMES: list[str] = []\n")
        assert (finding.rule, finding.line) == ("global-mutable-state", 3)

    def test_message_names_the_read_only_alternatives(self):
        (finding,) = run("CACHE = {}\n")
        assert "MappingProxyType" in finding.message
        assert "suppression" in finding.message


class TestRepoIsClean:
    def test_default_rules_are_registered(self):
        names = {rule.name for rule in default_rules()}
        assert names == {
            "set-order-iteration",
            "global-mutable-state",
        }

    def test_rule_names_are_unique_across_the_catalogue(self):
        names = [rule.name for rule in (*default_rules(), PERSIST_SCHEMA)]
        assert len(names) == len(set(names))

    def test_every_rule_carries_a_summary_and_a_rationale(self):
        for rule in (*default_rules(), PERSIST_SCHEMA):
            assert rule.summary, rule.name
            assert len(rule.explanation) > 100, rule.name

    def test_the_schema_lock_is_not_a_per_file_rule(self):
        assert PERSIST_SCHEMA not in default_rules()
        assert list(PERSIST_SCHEMA.check(None)) == []

    def test_every_rule_has_an_audit_row_and_a_catalog_section(self):
        docs = Path(__file__).resolve().parents[2] / "docs" / "static-analysis.md"
        text = docs.read_text(encoding="utf-8")
        for rule in default_rules():
            assert f"| `{rule.name}` |" in text, f"{rule.name} missing from the audit"
            assert f"### `{rule.name}`" in text, f"{rule.name} has no catalog section"

    def test_repro_package_tree_is_lint_clean(self):
        findings = lint_paths()
        assert findings == [], "\n".join(finding.describe() for finding in findings)
