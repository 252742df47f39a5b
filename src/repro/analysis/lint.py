"""A small AST lint framework with repro-specific rules.

The rules (:mod:`repro.analysis.rules`) target the hazards that matter to
*this* codebase: nondeterministic iteration inside the fingerprint and
serialisation paths (which would silently break ``persistent_digest`` warm
starts and bit-identical parallel replay), mutable defaults, process-global
mutable state, and bare ``except`` clauses.

The framework is deliberately tiny: a rule is a named check over one
parsed module, findings are ``path:line`` records, and suppressions are
explicit and *justified* —

.. code-block:: python

    _CACHE: dict[str, int] = {}  # lint: disable=global-mutable-state -- cleared per session in reset()

A suppression without the ``-- justification`` tail is itself reported (as
a ``bad-suppression`` finding), so silencing a rule always leaves a
reviewable reason in the source.  Run it as ``repro lint [--check]
[--rule NAME] [PATHS]``; with no paths it lints the installed ``repro``
package tree.
"""

from __future__ import annotations

import ast
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

__all__ = [
    "LintContext",
    "LintFinding",
    "LintRule",
    "LintStats",
    "default_paths",
    "default_rules",
    "iter_source_files",
    "lint_paths",
    "lint_paths_timed",
    "lint_source",
]

#: ``# lint: disable=rule-a,rule-b -- why this is fine``
_SUPPRESSION = re.compile(
    r"#\s*lint:\s*disable=(?P<rules>[A-Za-z0-9_,-]+)(?P<tail>.*)$"
)
_JUSTIFICATION = re.compile(r"^\s*--\s*\S")


@dataclass(frozen=True)
class LintFinding:
    """One reported problem: a rule name anchored to a file and line."""

    rule: str
    path: str
    line: int
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class LintContext:
    """Everything a rule check sees: one parsed module plus its source.

    The module is parsed exactly once per file and this context is shared
    across every rule and dataflow analyzer that runs on it.  Rules that
    only care about a few node types should use :meth:`nodes` instead of
    ``ast.walk`` — the first call walks the tree once and buckets every
    node by type, so N rules cost one traversal instead of N.
    """

    path: str
    tree: ast.Module
    lines: tuple[str, ...]
    #: Lazily built node-type buckets, shared by all rules on this module.
    _node_index: dict[type, tuple[ast.AST, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def nodes(self, *types: type) -> tuple[ast.AST, ...]:
        """All nodes of the given types, in document order, from one walk."""
        if not self._node_index:
            buckets: dict[type, list[ast.AST]] = {}
            for node in ast.walk(self.tree):
                buckets.setdefault(type(node), []).append(node)
            for node_type, bucket in buckets.items():
                self._node_index[node_type] = tuple(bucket)
        if len(types) == 1:
            return self._node_index.get(types[0], ())
        matched: list[ast.AST] = []
        for node_type in types:
            matched.extend(self._node_index.get(node_type, ()))
        matched.sort(key=lambda node: (getattr(node, "lineno", 0), getattr(node, "col_offset", 0)))
        return tuple(matched)


#: A rule check yields ``(line, message)`` pairs over one module.
Check = Callable[[LintContext], Iterable[tuple[int, str]]]


@dataclass(frozen=True)
class LintRule:
    """A named, documented check; ``scope`` restricts it to matching paths."""

    name: str
    summary: str
    check: Check
    scope: tuple[str, ...] = ()
    #: Long-form rationale shown by ``repro analyze --explain NAME``.
    explanation: str = ""

    def applies(self, path: str) -> bool:
        posix = path.replace("\\", "/")
        return not self.scope or any(pattern in posix for pattern in self.scope)


@dataclass(frozen=True)
class LintStats:
    """Where a lint run spent its time (reported by ``--check``)."""

    files: int
    rules: int
    parse_seconds: float
    check_seconds: float

    def describe(self) -> str:
        total = self.parse_seconds + self.check_seconds
        return (
            f"checked {self.files} files with {self.rules} rules in {total:.2f}s "
            f"(parse {self.parse_seconds:.2f}s, rules {self.check_seconds:.2f}s; "
            "one parse per file, AST shared across rules)"
        )


def default_rules() -> tuple[LintRule, ...]:
    """The built-in rule set (imported lazily to keep this module generic).

    Includes both the syntactic rules and the flow-sensitive analyzers;
    ``repro analyze`` runs the analyzer subset alone.
    """
    from repro.analysis.rules import ALL_RULES

    return ALL_RULES


def default_paths() -> list[Path]:
    """With no explicit paths, lint the installed ``repro`` package tree."""
    import repro

    return [Path(repro.__file__).parent]


def _parse_suppressions(
    lines: Sequence[str], path: str
) -> tuple[dict[int, frozenset[str]], list[LintFinding]]:
    """Line → suppressed rule names, plus findings for unjustified ones."""
    suppressed: dict[int, frozenset[str]] = {}
    meta: list[LintFinding] = []
    for number, line in enumerate(lines, start=1):
        match = _SUPPRESSION.search(line)
        if match is None:
            continue
        names = frozenset(
            name.strip() for name in match.group("rules").split(",") if name.strip()
        )
        if not _JUSTIFICATION.match(match.group("tail")):
            meta.append(
                LintFinding(
                    "bad-suppression",
                    path,
                    number,
                    "suppression lacks a justification; write "
                    "'# lint: disable=RULE -- why this is fine'",
                )
            )
            continue
        suppressed[number] = suppressed.get(number, frozenset()) | names
    return suppressed, meta


def lint_source(
    source: str, path: str, rules: Sequence[LintRule] | None = None
) -> list[LintFinding]:
    """Lint one module's source text; returns findings sorted by position.

    Unparseable source yields a single ``syntax-error`` finding rather than
    raising — the linter must be able to sweep a tree containing a broken
    file and still report on the rest.
    """
    if rules is None:
        rules = default_rules()
    findings, _, _ = _lint_source_timed(source, path, rules)
    return findings


def _lint_source_timed(
    source: str, path: str, rules: Sequence[LintRule]
) -> tuple[list[LintFinding], float, float]:
    """Lint one module, returning ``(findings, parse_seconds, check_seconds)``."""
    parse_start = time.perf_counter()
    lines = tuple(source.splitlines())
    suppressed, findings = _parse_suppressions(lines, path)
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        findings.append(
            LintFinding("syntax-error", path, error.lineno or 1, f"does not parse: {error.msg}")
        )
        return findings, time.perf_counter() - parse_start, 0.0
    context = LintContext(path=path, tree=tree, lines=lines)
    check_start = time.perf_counter()
    for rule in rules:
        if not rule.applies(path):
            continue
        for line, message in rule.check(context):
            if rule.name in suppressed.get(line, frozenset()):
                continue
            findings.append(LintFinding(rule.name, path, line, message))
    check_end = time.perf_counter()
    findings.sort(key=lambda finding: (finding.path, finding.line, finding.rule))
    return findings, check_start - parse_start, check_end - check_start


def iter_source_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(
                candidate
                for candidate in path.rglob("*.py")
                if not any(part.startswith(".") for part in candidate.parts)
            )
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def _display_path(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(
    paths: Sequence[Path] | None = None, rules: Sequence[LintRule] | None = None
) -> list[LintFinding]:
    """Lint files/directories (default: the ``repro`` package tree)."""
    findings, _ = lint_paths_timed(paths, rules)
    return findings


def lint_paths_timed(
    paths: Sequence[Path] | None = None, rules: Sequence[LintRule] | None = None
) -> tuple[list[LintFinding], LintStats]:
    """Like :func:`lint_paths`, but also reports where the time went."""
    if rules is None:
        rules = default_rules()
    targets = iter_source_files(paths if paths else default_paths())
    findings: list[LintFinding] = []
    parse_seconds = 0.0
    check_seconds = 0.0
    for target in targets:
        file_findings, parsed, checked = _lint_source_timed(
            target.read_text(encoding="utf-8"), _display_path(target), rules
        )
        findings.extend(file_findings)
        parse_seconds += parsed
        check_seconds += checked
    stats = LintStats(
        files=len(targets),
        rules=len(rules),
        parse_seconds=parse_seconds,
        check_seconds=check_seconds,
    )
    return findings, stats
