"""Per-function control-flow graphs over the Python AST.

The dataflow analysis (:mod:`repro.analysis.dataflow` and its client
:mod:`repro.analysis.taint`) needs *flow-sensitive* facts: whether a value
is still tainted **at the point it reaches a sink**, not merely whether a
tainted expression appears somewhere in the same function.  That requires
a control-flow graph; this module builds one per function (or per module
body) from the AST alone.

The graph is statement-granular: a :class:`Block` holds a run of simple
statements executed in sequence, and compound statements contribute their
header node as a *marker* statement (so a transfer function can model the
bindings the header performs — a ``for`` target, a ``with ... as`` alias,
an ``except ... as`` name) followed by edges into their component bodies:

* ``if``/``elif``/``else`` — the branch bodies fork from the header block
  and re-converge on a join block;
* ``while``/``for`` — a dedicated *head* block holding the header marker,
  a back edge from the body, an exit edge to the code after the loop (via
  the ``else`` suite when present); ``break`` and ``continue`` edge to the
  loop exit and head respectively;
* ``try`` — every block of the ``try`` suite gains an edge to every
  handler entry (an exception can surface anywhere inside the suite), the
  handlers re-converge with the ``else`` path, and the ``finally`` suite
  runs on the converged path (the analyses here are may-analyses over
  normal control flow; the exceptional-exit-through-finally path adds no
  reachable bindings they care about);
* ``with`` — the header is a marker in the current block and the body is
  inlined (a context manager does not branch);
* ``return``/``raise`` — edge to the function exit block (``raise`` also
  edges into the active handlers); the statements after them land in an
  unreachable block with no predecessors.

Every block records the chain of enclosing loop-head block indices
(:attr:`Block.loop_heads`, innermost last).  The taint analysis uses this
to scope "this loop iterates in nondeterministic order" facts to the
statements that actually run inside that loop.

Nested function and class definitions are *not* descended into: a ``def``
or ``class`` statement is a simple binding statement of the enclosing
scope, and the nested body gets its own CFG when the analyzer reaches it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["Block", "ControlFlowGraph", "FunctionLike", "StatementNode", "build_cfg"]


#: Function-like AST roots accepted by :func:`build_cfg`.
FunctionLike = ast.FunctionDef | ast.AsyncFunctionDef | ast.Module

#: What a :class:`Block` holds: plain statements plus ``except`` markers.
StatementNode = ast.stmt | ast.excepthandler


@dataclass
class Block:
    """A straight-line run of statements with its outgoing edges.

    ``statements`` mixes simple statements with compound-statement *header
    markers* (the ``ast.If``/``ast.While``/``ast.For``/``ast.With``/
    ``ast.Try``/``ast.ExceptHandler`` node itself); a transfer function
    recognises the marker types and models only their header effects.
    """

    index: int
    statements: list[ast.stmt | ast.excepthandler] = field(default_factory=list)
    successors: list[int] = field(default_factory=list)
    #: Enclosing loop-head block indices, outermost first.
    loop_heads: tuple[int, ...] = ()


@dataclass
class ControlFlowGraph:
    """The blocks of one function body plus entry/exit indices."""

    root: FunctionLike
    blocks: list[Block]
    entry: int
    exit: int

    def predecessors(self) -> dict[int, list[int]]:
        """Block index → predecessor block indices."""
        preds: dict[int, list[int]] = {block.index: [] for block in self.blocks}
        for block in self.blocks:
            for successor in block.successors:
                preds[successor].append(block.index)
        return preds

    def describe(self) -> str:
        """A compact rendering for debugging and the CFG tests."""
        lines = [f"cfg entry={self.entry} exit={self.exit}"]
        for block in self.blocks:
            kinds = ",".join(type(statement).__name__ for statement in block.statements) or "-"
            loops = f" loops={list(block.loop_heads)}" if block.loop_heads else ""
            lines.append(f"  B{block.index} [{kinds}] -> {sorted(block.successors)}{loops}")
        return "\n".join(lines)


class _Builder:
    """One-shot CFG construction over a function (or module) body."""

    def __init__(self, root: FunctionLike) -> None:
        self.root = root
        self.blocks: list[Block] = []
        #: ``(head index, after index)`` per enclosing loop, innermost last.
        self.loop_stack: list[tuple[int, int]] = []
        #: Handler-entry block indices per enclosing ``try``, innermost last.
        self.handler_stack: list[list[int]] = []
        self.entry = self.new_block().index
        self.exit = self.new_block().index

    # ------------------------------------------------------------------ #
    # Block and edge plumbing
    # ------------------------------------------------------------------ #
    def new_block(self) -> Block:
        block = Block(
            index=len(self.blocks),
            loop_heads=tuple(head for head, _ in self.loop_stack),
        )
        self.blocks.append(block)
        return block

    def edge(self, source: int, target: int) -> None:
        successors = self.blocks[source].successors
        if target not in successors:
            successors.append(target)

    def _edge_to_handlers(self, source: int) -> None:
        if self.handler_stack:
            for handler_entry in self.handler_stack[-1]:
                self.edge(source, handler_entry)

    # ------------------------------------------------------------------ #
    # Statement dispatch
    # ------------------------------------------------------------------ #
    def build(self) -> ControlFlowGraph:
        end = self.process_body(self.root.body, self.entry)
        self.edge(end, self.exit)
        return ControlFlowGraph(
            root=self.root, blocks=self.blocks, entry=self.entry, exit=self.exit
        )

    def process_body(self, body: list[ast.stmt], current: int) -> int:
        for statement in body:
            current = self.process_statement(statement, current)
        return current

    def process_statement(self, statement: ast.stmt, current: int) -> int:
        if isinstance(statement, ast.If):
            return self._process_if(statement, current)
        if isinstance(statement, (ast.While, ast.For, ast.AsyncFor)):
            return self._process_loop(statement, current)
        if isinstance(statement, ast.Try):
            return self._process_try(statement, current)
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            self.blocks[current].statements.append(statement)
            return self.process_body(statement.body, current)
        if isinstance(statement, ast.Match):
            return self._process_match(statement, current)
        if isinstance(statement, (ast.Return, ast.Raise)):
            self.blocks[current].statements.append(statement)
            self.edge(current, self.exit)
            if isinstance(statement, ast.Raise):
                self._edge_to_handlers(current)
            return self.new_block().index  # unreachable continuation
        if isinstance(statement, ast.Break):
            self.blocks[current].statements.append(statement)
            if self.loop_stack:
                self.edge(current, self.loop_stack[-1][1])
            return self.new_block().index
        if isinstance(statement, ast.Continue):
            self.blocks[current].statements.append(statement)
            if self.loop_stack:
                self.edge(current, self.loop_stack[-1][0])
            return self.new_block().index
        # Simple statement (including nested def/class, which bind a name in
        # this scope and are analyzed separately).
        if self.handler_stack and self.blocks[current].statements:
            # Inside a try suite, each simple statement gets its own block:
            # an exception can interrupt the suite between any two
            # statements, so every intermediate state must be able to flow
            # into the handlers, not just each block's final state.
            next_block = self.new_block()
            self.edge(current, next_block.index)
            current = next_block.index
        self.blocks[current].statements.append(statement)
        return current

    # ------------------------------------------------------------------ #
    # Compound statements
    # ------------------------------------------------------------------ #
    def _process_if(self, statement: ast.If, current: int) -> int:
        self.blocks[current].statements.append(statement)  # header marker (test)
        after = self.new_block()
        then_entry = self.new_block()
        self.edge(current, then_entry.index)
        then_end = self.process_body(statement.body, then_entry.index)
        self.edge(then_end, after.index)
        if statement.orelse:
            else_entry = self.new_block()
            self.edge(current, else_entry.index)
            else_end = self.process_body(statement.orelse, else_entry.index)
            self.edge(else_end, after.index)
        else:
            self.edge(current, after.index)
        return after.index

    def _process_loop(self, statement: ast.While | ast.For | ast.AsyncFor, current: int) -> int:
        head = self.new_block()
        self.blocks[head.index].statements.append(statement)  # header marker
        self.edge(current, head.index)
        after = self.new_block()

        self.loop_stack.append((head.index, after.index))
        body_entry = self.new_block()
        self.edge(head.index, body_entry.index)
        body_end = self.process_body(statement.body, body_entry.index)
        self.edge(body_end, head.index)
        self.loop_stack.pop()

        if statement.orelse:
            else_entry = self.new_block()
            self.edge(head.index, else_entry.index)
            else_end = self.process_body(statement.orelse, else_entry.index)
            self.edge(else_end, after.index)
        else:
            self.edge(head.index, after.index)
        return after.index

    def _process_try(self, statement: ast.Try, current: int) -> int:
        self.blocks[current].statements.append(statement)  # header marker
        handler_entries = [self.new_block().index for _ in statement.handlers]
        after = self.new_block()

        body_entry = self.new_block()
        self.edge(current, body_entry.index)
        first_body_block = len(self.blocks)
        self.handler_stack.append(handler_entries)
        body_end = self.process_body(statement.body, body_entry.index)
        self.handler_stack.pop()
        # An exception can surface anywhere in the suite: every block the
        # suite contributed (plus its entry, plus the header block — the
        # very first statement can raise before binding anything) may jump
        # to every handler.
        try_region = [current, body_entry.index, *range(first_body_block, len(self.blocks))]
        for block_index in try_region:
            for handler_entry in handler_entries:
                self.edge(block_index, handler_entry)

        else_end = self.process_body(statement.orelse, body_end)
        self.edge(else_end, after.index)

        for handler, handler_entry in zip(statement.handlers, handler_entries):
            self.blocks[handler_entry].statements.append(handler)  # marker (binds name)
            handler_end = self.process_body(handler.body, handler_entry)
            self.edge(handler_end, after.index)

        if statement.finalbody:
            return self.process_body(statement.finalbody, after.index)
        return after.index

    def _process_match(self, statement: ast.Match, current: int) -> int:
        self.blocks[current].statements.append(statement)  # header marker (subject)
        after = self.new_block()
        for case in statement.cases:
            case_entry = self.new_block()
            self.edge(current, case_entry.index)
            case_end = self.process_body(case.body, case_entry.index)
            self.edge(case_end, after.index)
        self.edge(current, after.index)  # no case may match
        return after.index


def build_cfg(root: FunctionLike) -> ControlFlowGraph:
    """Build the CFG of one function definition or module body."""
    return _Builder(root).build()
