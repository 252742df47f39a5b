"""Fork/pickle-safety analysis for the parallel execution boundary.

Everything that crosses into a ``multiprocessing`` worker — the request
chunks of :func:`repro.parallel.parallel_batch` and every field of a
:class:`repro.session.session.SessionSpec` — must pickle.  A lambda,
a function or class defined inside another function, or an open file
handle raises ``PicklingError`` (or worse, pickles something subtly
wrong) only when the parallel path actually runs, which tier-1 tests on
small workloads rarely force.  This module proves the absence of those
defects statically, in two passes per module:

**Flow-sensitive unpicklable-value tracking** — a forward dataflow over
each function's CFG labels names bound to lambdas (``lambda``), nested
``def``s (``nested-function``), function-local classes (``local-class``)
and open handles (``open-handle``, from ``open(...)`` or ``with open(...)
as f``), propagating through tuples/lists/dicts and
``functools.partial``.  Any labelled value (or a literal ``lambda``)
reaching a worker-boundary call argument is a ``fork-unpicklable``
finding.  Flow-sensitivity matters in both directions: rebinding the
name to a module-level function before the call is clean, and a label
acquired on only one branch still may-reach the sink.

**Worker-reachable shared-state writes** — a per-module call graph is
rooted at every function the module hands to a worker boundary
(``parallel_batch(fn, ...)`` targets, ``initializer=`` callbacks).  Any
function reachable from those roots that rebinds a module-level name
(``global x; x = ...``) or mutates a module-level mutable container
(``CACHE[key] = ...``, ``REGISTRY.append(...)``) is a
``fork-shared-state`` finding: with the fork/spawn start methods the
write lands in the worker's copy of the module and is silently lost in
the parent (and, under ``fork``, may expose a half-written parent state
to begin with).

Both passes only *report* at the worker boundary, so modules that never
touch the parallel layer are never flagged.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.cfg import Block, ControlFlowGraph, StatementNode, build_cfg
from repro.analysis.dataflow import State, run_analysis

__all__ = ["analyze_module", "shared_state_findings", "unpicklable_findings"]

LAMBDA = "lambda"
NESTED_FUNCTION = "nested-function"
LOCAL_CLASS = "local-class"
OPEN_HANDLE = "open-handle"

_EMPTY: frozenset[str] = frozenset()

#: Call-target names that ship arguments across the process boundary.
_BOUNDARY_CALLS = frozenset({"parallel_batch", "SessionSpec"})

#: How each label reads in a finding message.
_LABEL_PROBLEM = {  # lint: disable=global-mutable-state -- read-only label-to-message table; never mutated
    LAMBDA: "a lambda (unpicklable)",
    NESTED_FUNCTION: "a function defined in a local scope (unpicklable)",
    LOCAL_CLASS: "a class defined in a local scope (unpicklable)",
    OPEN_HANDLE: "an open file handle (unpicklable, and the offset would not survive the fork)",
}

#: Mutating method names on module-level containers.
_CONTAINER_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
    }
)

#: Node types that allocate a mutable container (shared with the
#: ``global-mutable-state`` lint rule's notion of mutability).
_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "OrderedDict", "Counter"}
)


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node.func)
        return name in _MUTABLE_CALLS
    return False


def _target_names(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


class _Finding:
    __slots__ = ("line", "message")

    def __init__(self, line: int, message: str) -> None:
        self.line = line
        self.message = message


# --------------------------------------------------------------------------- #
# Pass 1: flow-sensitive unpicklable-value tracking
# --------------------------------------------------------------------------- #
class ForkSafety:
    """The dataflow analysis labelling unpicklable bindings."""

    def __init__(self, cfg: ControlFlowGraph) -> None:
        self.cfg = cfg
        #: Nested ``def``s are only unpicklable when *this* scope is itself
        #: a function (a module-level ``def`` pickles by qualified name).
        self.function_scope = isinstance(cfg.root, (ast.FunctionDef, ast.AsyncFunctionDef))

    # -- expression labels ---------------------------------------------- #
    def labels_of(self, node: ast.expr | None, state: State) -> frozenset[str]:
        if node is None:
            return _EMPTY
        if isinstance(node, ast.Lambda):
            return frozenset({LAMBDA})
        if isinstance(node, ast.Name):
            return state.get(node.id, _EMPTY)
        if isinstance(node, ast.Call):
            name = _call_name(node.func)
            if name == "open":
                return frozenset({OPEN_HANDLE})
            if isinstance(node.func, ast.Name) and LOCAL_CLASS in state.get(
                node.func.id, _EMPTY
            ):
                # Instances of a function-local class are as unpicklable as
                # the class itself.
                return frozenset({LOCAL_CLASS})
            if name == "partial":
                combined: frozenset[str] = _EMPTY
                for argument in node.args:
                    combined |= self.labels_of(argument, state)
                for keyword in node.keywords:
                    combined |= self.labels_of(keyword.value, state)
                return combined
            return _EMPTY
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            combined = _EMPTY
            for element in node.elts:
                combined |= self.labels_of(element, state)
            return combined
        if isinstance(node, ast.Dict):
            combined = _EMPTY
            for value in node.values:
                combined |= self.labels_of(value, state)
            return combined
        if isinstance(node, ast.Starred):
            return self.labels_of(node.value, state)
        if isinstance(node, ast.IfExp):
            return self.labels_of(node.body, state) | self.labels_of(node.orelse, state)
        if isinstance(node, ast.NamedExpr):
            labels = self.labels_of(node.value, state)
            if isinstance(node.target, ast.Name):
                state[node.target.id] = labels
            return labels
        return _EMPTY

    # -- dataflow hooks -------------------------------------------------- #
    def initial_state(self, cfg: ControlFlowGraph) -> State:
        state: State = {}
        root = cfg.root
        if isinstance(root, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = root.args
            for arg in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs):
                state[arg.arg] = _EMPTY
            if arguments.vararg is not None:
                state[arguments.vararg.arg] = _EMPTY
            if arguments.kwarg is not None:
                state[arguments.kwarg.arg] = _EMPTY
        return state

    def transfer(self, statement: StatementNode, state: State, block: Block) -> None:
        if isinstance(statement, ast.Assign):
            labels = self.labels_of(statement.value, state)
            for target in statement.targets:
                for name in _target_names(target):
                    state[name] = labels
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            for name in _target_names(statement.target):
                state[name] = self.labels_of(statement.value, state)
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            state[statement.name] = (
                frozenset({NESTED_FUNCTION}) if self.function_scope else _EMPTY
            )
        elif isinstance(statement, ast.ClassDef):
            state[statement.name] = (
                frozenset({LOCAL_CLASS}) if self.function_scope else _EMPTY
            )
        elif isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                if item.optional_vars is not None:
                    labels = self.labels_of(item.context_expr, state)
                    for name in _target_names(item.optional_vars):
                        state[name] = labels
        elif isinstance(statement, (ast.For, ast.AsyncFor)):
            labels = self.labels_of(statement.iter, state)
            for name in _target_names(statement.target):
                state[name] = labels
        elif isinstance(statement, ast.excepthandler):
            if statement.name:
                state[statement.name] = _EMPTY
        elif isinstance(statement, ast.Delete):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    state.pop(target.id, None)
        elif isinstance(statement, ast.Expr):
            self.labels_of(statement.value, state)  # walrus side effects

    def observe(
        self, statement: StatementNode, state: State, block: Block
    ) -> Iterator[_Finding]:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if not isinstance(statement, (ast.stmt, ast.excepthandler)):
            return  # pragma: no cover - defensive
        for call in ast.walk(statement):
            if not isinstance(call, ast.Call):
                continue
            name = _call_name(call.func)
            if name not in _BOUNDARY_CALLS:
                continue
            arguments: list[tuple[str, ast.expr]] = [
                (f"argument {position}", argument)
                for position, argument in enumerate(call.args, start=1)
            ]
            arguments.extend(
                (f"keyword {keyword.arg or '**'}", keyword.value)
                for keyword in call.keywords
            )
            for describe, argument in arguments:
                labels = self.labels_of(argument, state)
                if not labels:
                    continue
                problems = "; ".join(
                    _LABEL_PROBLEM[label] for label in sorted(labels)
                )
                yield _Finding(
                    call.lineno,
                    f"{describe} of {name}() crosses the fork/pickle boundary "
                    f"but is {problems}; pass a module-level callable and "
                    "picklable payloads",
                )


# --------------------------------------------------------------------------- #
# Pass 2: worker-reachable module-state writes
# --------------------------------------------------------------------------- #
def _module_functions(tree: ast.Module) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
    return {
        statement.name: statement
        for statement in tree.body
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _module_mutable_names(tree: ast.Module) -> set[str]:
    mutable: set[str] = set()
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets, value = [statement.target], statement.value
        else:
            continue
        if _is_mutable_value(value):
            for target in targets:
                if isinstance(target, ast.Name):
                    mutable.add(target.id)
    return mutable


def _worker_roots(tree: ast.Module, functions: Iterable[str]) -> set[str]:
    """Module-level function names handed to a worker boundary call."""
    known = set(functions)
    roots: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _call_name(node.func) != "parallel_batch":
            continue
        candidates: list[ast.expr] = list(node.args[:1])
        for keyword in node.keywords:
            if keyword.arg in ("initializer", "fn", "worker"):
                candidates.append(keyword.value)
        for candidate in candidates:
            if isinstance(candidate, ast.Name) and candidate.id in known:
                roots.add(candidate.id)
            elif (
                isinstance(candidate, ast.Call)
                and _call_name(candidate.func) == "partial"
                and candidate.args
                and isinstance(candidate.args[0], ast.Name)
                and candidate.args[0].id in known
            ):
                roots.add(candidate.args[0].id)
    return roots


def _reachable(
    roots: set[str], functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef]
) -> set[str]:
    seen: set[str] = set()
    frontier = [root for root in sorted(roots) if root in functions]
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call):
                callee = _call_name(node.func)
                if callee in functions and callee not in seen:
                    frontier.append(callee)
            elif isinstance(node, ast.Name) and node.id in functions and node.id not in seen:
                # A bare reference (e.g. passed on as a callback) keeps the
                # function on the worker-reachable frontier.
                frontier.append(node.id)
    return seen


def _local_bindings(function: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound locally (parameters and non-``global`` assignments)."""
    arguments = function.args
    local = {
        arg.arg
        for arg in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs)
    }
    if arguments.vararg is not None:
        local.add(arguments.vararg.arg)
    if arguments.kwarg is not None:
        local.add(arguments.kwarg.arg)
    declared_global: set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                local.update(_target_names(target))
        elif isinstance(node, ast.AnnAssign):
            local.update(_target_names(node.target))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            local.update(_target_names(node.target))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    local.update(_target_names(item.optional_vars))
    return local - declared_global


def _shared_state_findings(tree: ast.Module) -> Iterator[_Finding]:
    functions = _module_functions(tree)
    roots = _worker_roots(tree, functions)
    if not roots:
        return
    mutable = _module_mutable_names(tree)
    for name in sorted(_reachable(roots, functions)):
        function = functions[name]
        local = _local_bindings(function)
        declared_global: set[str] = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        shared_mutable = mutable - local
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for bound in _target_names(target):
                        if bound in declared_global:
                            yield _Finding(
                                node.lineno,
                                f"worker-reachable {name}() rebinds module-global "
                                f"{bound}; the write happens in the worker's copy "
                                "and is lost in the parent (lost update across fork)",
                            )
                    base = target
                    while isinstance(base, (ast.Attribute, ast.Subscript)):
                        base = base.value
                    if (
                        isinstance(base, ast.Name)
                        and base is not target
                        and base.id in shared_mutable
                    ):
                        yield _Finding(
                            node.lineno,
                            f"worker-reachable {name}() writes into module-level "
                            f"mutable {base.id}; the write is per-process and is "
                            "lost in the parent (lost update across fork)",
                        )
            elif isinstance(node, ast.AugAssign):
                target = node.target
                base = target
                while isinstance(base, (ast.Attribute, ast.Subscript)):
                    base = base.value
                if isinstance(base, ast.Name) and (
                    base.id in declared_global
                    or (base is not target and base.id in shared_mutable)
                ):
                    yield _Finding(
                        node.lineno,
                        f"worker-reachable {name}() updates module-level state "
                        f"{base.id} in place; the update is per-process and is "
                        "lost in the parent (lost update across fork)",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _CONTAINER_MUTATORS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in shared_mutable
                ):
                    yield _Finding(
                        node.lineno,
                        f"worker-reachable {name}() mutates module-level "
                        f"container {func.value.id} ({func.attr}); the mutation "
                        "is per-process and is lost in the parent "
                        "(lost update across fork)",
                    )


def unpicklable_findings(tree: ast.Module) -> Iterator[tuple[int, str]]:
    """Pass 1 only: unpicklable values reaching a worker boundary."""
    scopes: list[ast.Module | ast.FunctionDef | ast.AsyncFunctionDef] = [tree]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append(node)
    for scope in scopes:
        cfg = build_cfg(scope)
        for finding in run_analysis(cfg, ForkSafety(cfg)):
            yield finding.line, finding.message


def shared_state_findings(tree: ast.Module) -> Iterator[tuple[int, str]]:
    """Pass 2 only: worker-reachable writes to module-level state."""
    for finding in _shared_state_findings(tree):
        yield finding.line, finding.message


def analyze_module(tree: ast.Module) -> Iterator[tuple[int, str]]:
    """Run both fork-safety passes over a module.

    Yields ``(line, message)`` pairs.  Pass 1 (unpicklable values reaching
    a worker boundary) runs per scope; pass 2 (worker-reachable writes to
    module state) runs once per module.
    """
    yield from unpicklable_findings(tree)
    yield from shared_state_findings(tree)
