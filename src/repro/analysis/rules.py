"""The repro-specific lint rules.

:data:`RULES` holds the syntactic checks (per-node AST matches).  They
share one parsed AST per file (via :meth:`LintContext.nodes`) and use the
same justified-suppression syntax.
:data:`PERSIST_SCHEMA` names the persist-schema lock check, which
``repro lint`` runs once per invocation beside them.  The catalogue in
``docs/static-analysis.md`` documents every rule's rationale and
suppression guidance; keep the two in sync.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import LintContext, LintRule

__all__ = ["PERSIST_SCHEMA", "RULES"]

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
            "key.  The rule is syntactic: it flags iteration over an "
            "expression that builds a set, in the three scoped modules where "
            "*any* raw set iteration is suspect."
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
)

#: The persist-schema lock (:mod:`repro.analysis.schema_lock`).  It compares
#: the running code's pickled layouts with the committed lock, not a source
#: file, so it has no per-file check: ``repro lint`` runs
#: :func:`~repro.analysis.schema_lock.check_lock` once when it is selected.
PERSIST_SCHEMA = LintRule(
    name="persist-schema",
    summary="pickled persist layouts match persist-schema.lock, or SCHEMA_VERSION was bumped",
    check=lambda context: (),
    explanation=(
        "The persistent cache pickles decision memos and their certificate "
        "payloads, keyed in part by SCHEMA_VERSION.  The check fingerprints "
        "the layout of every repro type reachable from those roots and "
        "compares it with persist-schema.lock (--schema-lock PATH).  A "
        "layout change without a SCHEMA_VERSION bump fails with a per-type "
        "field diff; after a bump, regenerate the lock with "
        "--write-schema-lock and commit it with the bump."
    ),
)
