"""Worklist dataflow solving over :mod:`repro.analysis.cfg` graphs.

:func:`solve_forward` runs any :class:`Analysis` (a forward abstract
interpretation) to a fixpoint with the classic worklist algorithm, then
exposes per-statement *entry* states so rules can ask "what is known at
this exact line on every path reaching it?".

One concrete lattice ships here: :class:`ReachingDefinitions` — for
each variable, the set of assignment statements that may have produced
its current value. The ownership rule uses it to chase a shard-result
variable back to every expression that could flow into a merge sink.

States must be immutable-ish values with structural ``==``; ``join``
must be commutative/associative/idempotent, or the worklist never
converges (the loop-with-join test pins convergence).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from .cfg import CFG, EdgeLabel


class Analysis:
    """A forward dataflow problem over one CFG."""

    def initial(self):
        """State at the function entry."""
        raise NotImplementedError

    def join(self, a, b):
        """Least upper bound of two states (path merge)."""
        raise NotImplementedError

    def transfer(self, stmt: ast.AST, state):
        """State after executing ``stmt`` in ``state``."""
        raise NotImplementedError

    def refine(self, label: EdgeLabel, state):
        """State after traversing an edge with ``label`` (default: no-op)."""
        return state


class Solution:
    """Fixpoint of one analysis: block entry states + per-stmt states."""

    def __init__(self, block_in: Dict[int, object], analysis: Analysis, cfg: CFG):
        self.block_in = block_in
        self._analysis = analysis
        self._cfg = cfg
        self._stmt_in: Dict[int, object] = {}
        for bid, block in cfg.blocks.items():
            state = block_in.get(bid)
            if state is None:
                continue  # unreachable block
            for stmt in block.stmts:
                self._stmt_in[id(stmt)] = state
                state = analysis.transfer(stmt, state)

    def before(self, stmt: ast.AST):
        """The state on entry to ``stmt``, or ``None`` if unreachable."""
        return self._stmt_in.get(id(stmt))


def solve_forward(cfg: CFG, analysis: Analysis, max_iterations: int = 10000) -> Solution:
    """Iterate to a fixpoint; raises ``RuntimeError`` on non-convergence.

    The bound is a safety valve for a broken lattice (a ``join`` that
    is not monotone); any real function converges in a handful of
    passes because block count bounds the lattice chain length.
    """
    block_in: Dict[int, object] = {cfg.entry: analysis.initial()}
    worklist: List[int] = [cfg.entry]
    iterations = 0
    while worklist:
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError(
                "dataflow worklist did not converge "
                f"(>{max_iterations} iterations): non-monotone lattice?"
            )
        bid = worklist.pop(0)
        state = block_in[bid]
        for stmt in cfg.blocks[bid].stmts:
            state = analysis.transfer(stmt, state)
        for dst, label in cfg.blocks[bid].succs:
            out = analysis.refine(label, state)
            prev = block_in.get(dst)
            merged = out if prev is None else analysis.join(prev, out)
            if merged != prev:
                block_in[dst] = merged
                if dst not in worklist:
                    worklist.append(dst)
    return Solution(block_in, analysis, cfg)


# ----------------------------------------------------------------------
# Assignment extraction (shared by lattices)
# ----------------------------------------------------------------------
def bound_names(stmt: ast.AST) -> List[Tuple[str, Optional[ast.AST]]]:
    """``(name, value_expr_or_None)`` pairs a statement (re)binds.

    Tuple unpacking loses the per-name expression (value ``None``), as
    do ``for`` targets, ``with ... as`` names, imports and ``def``s —
    the reaching-definitions lattice still records the binding site.
    """
    out: List[Tuple[str, Optional[ast.AST]]] = []

    def targets(node: ast.AST, value: Optional[ast.AST]) -> None:
        if isinstance(node, ast.Name):
            out.append((node.id, value))
        elif isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                targets(elt, None)
        elif isinstance(node, ast.Starred):
            targets(node.value, None)

    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            targets(target, stmt.value)
    elif isinstance(stmt, ast.AnnAssign):
        targets(stmt.target, stmt.value)
    elif isinstance(stmt, ast.AugAssign):
        targets(stmt.target, None)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets(stmt.target, None)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                targets(item.optional_vars, None)
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        out.append((stmt.name, None))
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            out.append(((alias.asname or alias.name).split(".")[0], None))
    elif isinstance(stmt, ast.ExceptHandler) and stmt.name:
        out.append((stmt.name, None))
    return out


# ----------------------------------------------------------------------
# Reaching definitions
# ----------------------------------------------------------------------
class ReachingDefinitions(Analysis):
    """Variable → frozenset of defining statements (by identity).

    A state maps each seen variable name to the set of ``id(stmt)`` of
    the assignments that may reach; :attr:`sites` maps those ids back to
    ``(stmt, value_expr)`` so clients can inspect the defining RHS.
    """

    def __init__(self, params: Iterable[str] = ()) -> None:
        self.params = tuple(params)
        self.sites: Dict[int, Tuple[ast.AST, Optional[ast.AST]]] = {}

    PARAM = -1  # sentinel site: defined by a function parameter

    def initial(self):
        return {name: frozenset([self.PARAM]) for name in self.params}

    def join(self, a, b):
        if a == b:
            return a
        merged = dict(a)
        for name, sites in b.items():
            merged[name] = merged.get(name, frozenset()) | sites
        return merged

    def transfer(self, stmt: ast.AST, state):
        bindings = bound_names(stmt)
        if not bindings:
            return state
        new = dict(state)
        for name, value in bindings:
            self.sites[id(stmt)] = (stmt, value)
            new[name] = frozenset([id(stmt)])
        return new

    def definitions(self, state, name: str) -> List[Tuple[ast.AST, Optional[ast.AST]]]:
        """The ``(stmt, value)`` pairs that may define ``name`` here."""
        out = []
        for site in sorted(state.get(name, frozenset())):
            if site == self.PARAM:
                out.append((None, None))
            else:
                out.append(self.sites[site])
        return out
