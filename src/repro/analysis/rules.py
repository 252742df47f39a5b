"""The repro-specific lint rules and dataflow analyzers.

:data:`RULES` holds the syntactic checks (per-node AST matches);
:data:`ANALYZER_RULES` holds the flow-sensitive dataflow analyzers built
on :mod:`repro.analysis.cfg` / :mod:`repro.analysis.dataflow`.  Both run
under the same driver, share one parsed AST per file (via
:meth:`LintContext.nodes`), and use the same justified-suppression
syntax.  The catalogue in ``docs/static-analysis.md`` documents every
rule's rationale and suppression guidance; keep the two in sync.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import LintContext, LintRule

__all__ = ["ALL_RULES", "ANALYZER_RULES", "RULES"]

#: Node types whose evaluation yields a freshly allocated mutable object.
_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)

#: Constructor names that likewise produce mutable containers.
_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "OrderedDict", "Counter"}
)


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        target = node.func
        if isinstance(target, ast.Name):
            return target.id in _MUTABLE_CALLS
        if isinstance(target, ast.Attribute):
            return target.attr in _MUTABLE_CALLS
    return False


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


# --------------------------------------------------------------------------- #
# set-order-iteration
# --------------------------------------------------------------------------- #
def _builds_set(node: ast.expr) -> bool:
    """Does this expression syntactically construct a set (unordered)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _check_set_order_iteration(context: LintContext) -> Iterator[tuple[int, str]]:
    message = (
        "iterating a set here is hash-order-dependent; wrap it in sorted() "
        "so fingerprints and serialised artefacts stay bit-identical"
    )
    for node in context.nodes(ast.For, ast.AsyncFor):
        assert isinstance(node, (ast.For, ast.AsyncFor))
        if _builds_set(node.iter):
            yield node.iter.lineno, message
    for node in context.nodes(ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp):
        assert isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
        for generator in node.generators:
            if _builds_set(generator.iter):
                yield generator.iter.lineno, message


# --------------------------------------------------------------------------- #
# mutable-default
# --------------------------------------------------------------------------- #
def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = (
            target.id
            if isinstance(target, ast.Name)
            else target.attr if isinstance(target, ast.Attribute) else ""
        )
        if name == "dataclass":
            return True
    return False


def _check_mutable_default(context: LintContext) -> Iterator[tuple[int, str]]:
    for node in context.nodes(ast.FunctionDef, ast.AsyncFunctionDef):
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults if default is not None
        ]
        for default in defaults:
            if _is_mutable_value(default):
                yield (
                    default.lineno,
                    f"mutable default argument in {node.name}(); defaults are "
                    "evaluated once and shared across calls — use None and "
                    "allocate inside the body",
                )
    for node in context.nodes(ast.ClassDef):
        assert isinstance(node, ast.ClassDef)
        if not _is_dataclass_decorated(node):
            continue
        for statement in node.body:
            value = (
                statement.value
                if isinstance(statement, (ast.Assign, ast.AnnAssign))
                else None
            )
            if value is not None and _is_mutable_value(value):
                yield (
                    statement.lineno,
                    "mutable dataclass field default is shared across instances; "
                    "use field(default_factory=...)",
                )


# --------------------------------------------------------------------------- #
# global-mutable-state
# --------------------------------------------------------------------------- #
def _check_global_mutable_state(context: LintContext) -> Iterator[tuple[int, str]]:
    for statement in context.tree.body:
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets, value = [statement.target], statement.value
        else:
            continue
        names = [target.id for target in targets if isinstance(target, ast.Name)]
        if not names or all(_is_dunder(name) for name in names):
            continue
        if _is_mutable_value(value):
            yield (
                statement.lineno,
                f"module-level mutable state {', '.join(names)}; process-global "
                "mutability belongs in a session — use a read-only constant "
                "(tuple, frozenset, MappingProxyType), or justify with a "
                "suppression if this one is deliberate",
            )


# --------------------------------------------------------------------------- #
# bare-except
# --------------------------------------------------------------------------- #
def _check_bare_except(context: LintContext) -> Iterator[tuple[int, str]]:
    for node in context.nodes(ast.ExceptHandler):
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            yield (
                node.lineno,
                "bare 'except:' swallows SystemExit/KeyboardInterrupt and hides "
                "engine failures; catch a specific exception type",
            )


# --------------------------------------------------------------------------- #
# Flow-sensitive analyzer rules (CFG + dataflow, see taint.py / forksafety.py)
# --------------------------------------------------------------------------- #
def _check_determinism_taint(context: LintContext) -> Iterator[tuple[int, str]]:
    from repro.analysis.taint import analyze_module

    yield from analyze_module(context.tree)


def _check_fork_unpicklable(context: LintContext) -> Iterator[tuple[int, str]]:
    from repro.analysis.forksafety import unpicklable_findings

    yield from unpicklable_findings(context.tree)


def _check_fork_shared_state(context: LintContext) -> Iterator[tuple[int, str]]:
    from repro.analysis.forksafety import shared_state_findings

    yield from shared_state_findings(context.tree)


RULES: tuple[LintRule, ...] = (
    LintRule(
        name="set-order-iteration",
        summary="no hash-order set iteration in fingerprint/serialisation paths",
        check=_check_set_order_iteration,
        scope=("engine/fingerprints.py", "engine/persist.py", "io/json_codec.py"),
        explanation=(
            "Python sets iterate in hash order, which varies across processes "
            "(PYTHONHASHSEED) and interpreter versions.  In the fingerprint and "
            "serialisation modules that nondeterminism leaks straight into "
            "persisted digests and JSON artefacts, breaking warm starts and "
            "bit-identical replay.  Wrap the iterable in sorted() with a stable "
            "key.  This is the syntactic ancestor of the flow-sensitive "
            "determinism-taint analyzer, kept for the three scoped modules "
            "where *any* raw set iteration is suspect."
        ),
    ),
    LintRule(
        name="mutable-default",
        summary="no mutable default arguments or dataclass field defaults",
        check=_check_mutable_default,
        explanation=(
            "Default values are evaluated once at definition time; a mutable "
            "default is silently shared across every call (or every dataclass "
            "instance), so state leaks between unrelated computations.  Use "
            "None plus an in-body allocation, or field(default_factory=...)."
        ),
    ),
    LintRule(
        name="global-mutable-state",
        summary="no process-global mutable containers",
        check=_check_global_mutable_state,
        explanation=(
            "Module-level mutable containers are process-global hidden state: "
            "they survive across sessions, are not keyed into any fingerprint, "
            "and fork into inconsistent per-process copies under "
            "multiprocessing.  Name tables are read-only constants "
            "(MappingProxyType); the few deliberate exceptions, such as the "
            "session-less shared backend instances, carry a justified "
            "suppression."
        ),
    ),
    LintRule(
        name="bare-except",
        summary="no bare except clauses",
        check=_check_bare_except,
        explanation=(
            "A bare 'except:' also catches SystemExit and KeyboardInterrupt "
            "and hides engine failures as silent fallbacks.  Catch the "
            "narrowest exception type the recovery actually handles."
        ),
    ),
)

#: The flow-sensitive analyzers.  They run under ``repro lint`` alongside
#: the syntactic rules and alone under ``repro analyze``.
ANALYZER_RULES: tuple[LintRule, ...] = (
    LintRule(
        name="determinism-taint",
        summary="no nondeterministic value may flow into verdicts, certificates, "
        "serialised artefacts, or persistent digests",
        check=_check_determinism_taint,
        explanation=(
            "A forward may-taint analysis over each function's CFG.  Sources: "
            "iteration over unsorted sets/dicts (captured order), id(), "
            "identity hash(), os.environ reads, time/clock calls.  "
            "Sanitizers: sorted(), canonical-key ordering, the interning "
            "layer's dense-id paths.  Sinks: Outcome construction, "
            "certificate constructors, json.dump(s)/corpus serialisation, and "
            "persistent_digest() inputs.  Flow-sensitivity is the point: "
            "sorted(list(s)) is clean, and a raw set passed directly to "
            "persistent_digest() is clean too (the digest canonicalises "
            "containers itself) — only *captured* iteration order and "
            "value-level nondeterminism (identity, environment, time) are "
            "reported, which is what kills the false positives the syntactic "
            "set-order-iteration rule had to suppress."
        ),
    ),
    LintRule(
        name="fork-unpicklable",
        summary="every value crossing pool_imap/parallel_batch/SessionSpec must "
        "be picklable",
        check=_check_fork_unpicklable,
        explanation=(
            "A flow-sensitive binding analysis labels names bound to lambdas, "
            "function-local defs and classes, and open file handles, and "
            "reports any labelled value (or literal lambda) reaching a "
            "pool_imap()/parallel_batch()/SessionSpec() argument — those "
            "values cross the multiprocessing pickle boundary and would raise "
            "PicklingError only when the parallel path actually runs.  "
            "Rebinding the name to a module-level callable before the call "
            "site is recognised as clean."
        ),
    ),
    LintRule(
        name="fork-shared-state",
        summary="no worker-reachable writes to module-level state (lost update "
        "across fork)",
        check=_check_fork_shared_state,
        explanation=(
            "Builds the same-module call graph rooted at every function handed "
            "to a worker boundary (pool_imap targets, initializer= callbacks) "
            "and reports global rebinding or in-place mutation of module-level "
            "mutable containers anywhere reachable: under fork/spawn the write "
            "lands in the worker's copy of the module and is silently lost in "
            "the parent."
        ),
    ),
)

#: Everything ``repro lint`` runs by default.
ALL_RULES: tuple[LintRule, ...] = RULES + ANALYZER_RULES
