"""Intraprocedural control-flow graphs over ``ast`` function bodies.

:func:`build_cfg` turns one ``FunctionDef`` (or a bare statement list)
into a :class:`CFG` of basic blocks connected by *labeled* edges. The
graph is deliberately small-scale — it exists to make the flow rules in
:mod:`repro.analysis.flow_rules` path-sensitive, not to be a general
compiler IR — but it models everything those rules need:

* branches (``if``/``elif``/``else``) with ``("true", test)`` /
  ``("false", test)`` edge labels, so a dataflow lattice can refine its
  state per branch (e.g. ``stats is not None`` on the true edge);
* loops (``for``/``while``) with back edges, ``break``/``continue``
  targets, and a ``("loop-body", node)`` label on the header→body edge
  so analyses can reset per-iteration state;
* ``try``/``except``/``finally`` conservatively: every handler is
  reachable from both the start and the end of the protected body (an
  exception may fire before or after any definition inside it);
* early exits (``return``/``raise``) edge to the synthetic exit block.

Statements stay whole: a compound statement contributes its *header*
(the ``If``/``While``/``For``/``With``/``Try`` node itself) to the block
that evaluates its test/iterable, and its body statements to successor
blocks. Transfer functions therefore see ``ast.For`` once, at the point
its target is (re)bound.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

#: Edge labels: ("true"|"false", test_node), ("loop-body", loop_node),
#: or None for unconditional flow.
EdgeLabel = Optional[Tuple[str, ast.AST]]


class Block:
    """One basic block: a statement sequence with labeled out-edges."""

    __slots__ = ("id", "stmts", "succs", "preds")

    def __init__(self, bid: int) -> None:
        self.id = bid
        self.stmts: List[ast.stmt] = []
        self.succs: List[Tuple[int, EdgeLabel]] = []
        self.preds: List[int] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lines = [getattr(s, "lineno", "?") for s in self.stmts]
        return f"Block({self.id}, lines={lines}, succs={[s for s, _ in self.succs]})"


class CFG:
    """A function's control-flow graph; ``entry``/``exit`` are block ids."""

    def __init__(self) -> None:
        self.blocks: Dict[int, Block] = {}
        self.entry = self._new_block().id
        self.exit = self._new_block().id

    # ------------------------------------------------------------------
    def _new_block(self) -> Block:
        block = Block(len(self.blocks))
        self.blocks[block.id] = block
        return block

    def _edge(self, src: int, dst: int, label: EdgeLabel = None) -> None:
        self.blocks[src].succs.append((dst, label))
        self.blocks[dst].preds.append(src)

    # ------------------------------------------------------------------
    def shape(self) -> Dict[int, List[int]]:
        """``{block_id: sorted successor ids}`` — the golden-test view."""
        return {
            bid: sorted(dst for dst, _ in block.succs)
            for bid, block in sorted(self.blocks.items())
        }


class _LoopCtx:
    """break/continue targets for the innermost enclosing loop."""

    __slots__ = ("header", "after")

    def __init__(self, header: int, after: int) -> None:
        self.header = header
        self.after = after


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        self.loops: List[_LoopCtx] = []

    # ------------------------------------------------------------------
    def build(self, body: List[ast.stmt]) -> CFG:
        cfg = self.cfg
        last = self._run(body, cfg.entry)
        if last is not None:
            cfg._edge(last, cfg.exit)
        return cfg

    # ------------------------------------------------------------------
    def _run(self, body: List[ast.stmt], current: Optional[int]) -> Optional[int]:
        """Thread ``body`` starting in block ``current``.

        Returns the open block at the end of the sequence, or ``None``
        when every path left (return/raise/break/continue).
        """
        for stmt in body:
            if current is None:
                # Unreachable trailing statements: park them in a fresh
                # orphan block so dataflow still sees their definitions
                # as dead rather than crashing.
                current = self.cfg._new_block().id
            current = self._stmt(stmt, current)
        return current

    # ------------------------------------------------------------------
    def _stmt(self, stmt: ast.stmt, current: int) -> Optional[int]:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            cfg.blocks[current].stmts.append(stmt)
            after = cfg._new_block()
            then_entry = cfg._new_block()
            cfg._edge(current, then_entry.id, ("true", stmt.test))
            then_exit = self._run(stmt.body, then_entry.id)
            if then_exit is not None:
                cfg._edge(then_exit, after.id)
            if stmt.orelse:
                else_entry = cfg._new_block()
                cfg._edge(current, else_entry.id, ("false", stmt.test))
                else_exit = self._run(stmt.orelse, else_entry.id)
                if else_exit is not None:
                    cfg._edge(else_exit, after.id)
            else:
                cfg._edge(current, after.id, ("false", stmt.test))
            return after.id if cfg.blocks[after.id].preds else None

        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            header = cfg._new_block()
            # The loop node lives in the header: its test/iterable (and,
            # for `for`, the target rebinding) happen once per iteration.
            header.stmts.append(stmt)
            cfg._edge(current, header.id)
            after = cfg._new_block()
            body_entry = cfg._new_block()
            test = stmt.test if isinstance(stmt, ast.While) else stmt
            cfg._edge(header.id, body_entry.id, ("loop-body", stmt))
            self.loops.append(_LoopCtx(header.id, after.id))
            body_exit = self._run(stmt.body, body_entry.id)
            self.loops.pop()
            if body_exit is not None:
                cfg._edge(body_exit, header.id)  # back edge
            if stmt.orelse:
                else_entry = cfg._new_block()
                cfg._edge(header.id, else_entry.id, ("false", test))
                else_exit = self._run(stmt.orelse, else_entry.id)
                if else_exit is not None:
                    cfg._edge(else_exit, after.id)
            else:
                cfg._edge(header.id, after.id, ("false", test))
            return after.id

        if isinstance(stmt, ast.Try):
            cfg.blocks[current].stmts.append(stmt)
            body_entry = cfg._new_block()
            cfg._edge(current, body_entry.id)
            after = cfg._new_block()
            body_exit = self._run(stmt.body, body_entry.id)
            else_exit = body_exit
            if stmt.orelse and body_exit is not None:
                else_entry = cfg._new_block()
                cfg._edge(body_exit, else_entry.id)
                else_exit = self._run(stmt.orelse, else_entry.id)
            if else_exit is not None:
                cfg._edge(else_exit, after.id)
            for handler in stmt.handlers:
                h_entry = cfg._new_block()
                if handler.name:
                    # The bound exception name is defined at entry; hand
                    # the handler node to transfer functions.
                    h_entry.stmts.append(handler)  # type: ignore[arg-type]
                # An exception may fire before or after any statement in
                # the protected body: edges from both ends approximate
                # every intermediate program point.
                cfg._edge(body_entry.id, h_entry.id)
                if body_exit is not None and body_exit != body_entry.id:
                    cfg._edge(body_exit, h_entry.id)
                h_exit = self._run(handler.body, h_entry.id)
                if h_exit is not None:
                    cfg._edge(h_exit, after.id)
            if stmt.finalbody:
                fin_entry = cfg._new_block()
                for pred in list(cfg.blocks[after.id].preds):
                    # Reroute after-edges through the finally block.
                    cfg.blocks[pred].succs = [
                        (fin_entry.id, lab) if dst == after.id else (dst, lab)
                        for dst, lab in cfg.blocks[pred].succs
                    ]
                    cfg.blocks[fin_entry.id].preds.append(pred)
                cfg.blocks[after.id].preds = []
                fin_exit = self._run(stmt.finalbody, fin_entry.id)
                if fin_exit is not None:
                    cfg._edge(fin_exit, after.id)
            return after.id if cfg.blocks[after.id].preds else None

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            cfg.blocks[current].stmts.append(stmt)
            body_entry = cfg._new_block()
            cfg._edge(current, body_entry.id)
            return self._run(stmt.body, body_entry.id)

        if isinstance(stmt, (ast.Return, ast.Raise)):
            cfg.blocks[current].stmts.append(stmt)
            cfg._edge(current, cfg.exit)
            return None

        if isinstance(stmt, ast.Break):
            cfg.blocks[current].stmts.append(stmt)
            if self.loops:
                cfg._edge(current, self.loops[-1].after)
            else:
                cfg._edge(current, cfg.exit)
            return None

        if isinstance(stmt, ast.Continue):
            cfg.blocks[current].stmts.append(stmt)
            if self.loops:
                cfg._edge(current, self.loops[-1].header)
            else:
                cfg._edge(current, cfg.exit)
            return None

        # Simple statements — including nested FunctionDef/ClassDef,
        # which merely bind a name at this point.
        cfg.blocks[current].stmts.append(stmt)
        return current


def build_cfg(func_or_body) -> CFG:
    """Build a :class:`CFG` for a function node or a statement list."""
    if isinstance(func_or_body, (ast.FunctionDef, ast.AsyncFunctionDef)):
        body = func_or_body.body
    elif isinstance(func_or_body, ast.Module):
        body = func_or_body.body
    else:
        body = list(func_or_body)
    return _Builder().build(body)
