"""The Yannakakis algorithm for acyclic joins, with interval carrying.

``YANNAKAKIS(Q, R)`` computes an acyclic join in ``O(N + K)`` [86]: a
full semijoin reducer over a join tree (bottom-up then top-down) followed
by output-sensitive enumeration down the tree.

The temporal algorithms call this with *active* tuples (all valid at one
instant), so intervals are intersected during assembly and the
intersection is never empty there; used stand-alone on arbitrary temporal
relations, rows whose running intersection empties are pruned eagerly —
that makes the stand-alone version a correct (if not output-sensitive)
temporal acyclic join, which the test-suite exploits as a second oracle.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import QueryError
from ..core.hypergraph import Hypergraph, join_tree_children
from ..core.interval import Interval, Number
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from .hash_join import semijoin

Values = Tuple[object, ...]

_NEG_INF = float("-inf")
_POS_INF = float("inf")
_fast = Interval._fast


def yannakakis(
    hg: Hypergraph,
    database: Mapping[str, TemporalRelation],
    attr_order: Optional[Sequence[str]] = None,
    intersect_intervals: bool = True,
) -> JoinResultSet:
    """Acyclic join via full reducer + enumeration.

    Parameters
    ----------
    hg:
        An α-acyclic hypergraph (raises :class:`QueryError` otherwise).
    database:
        Relation bound to each hyperedge.
    attr_order:
        Output attribute layout; defaults to ``hg.attrs``.
    intersect_intervals:
        When true, result intervals are the intersection of all
        constituent tuples' intervals and combinations with empty
        intersections are pruned; when false, results carry
        ``Interval.always()``.
    """
    parent = hg.gyo_join_tree()
    if parent is None:
        raise QueryError(f"yannakakis requires an acyclic query, got {hg!r}")
    out_attrs = tuple(attr_order) if attr_order is not None else hg.attrs
    children = join_tree_children(parent)
    roots = children.get("", [])

    # --------------------------------------------------------------
    # Full reducer
    # --------------------------------------------------------------
    reduced: Dict[str, TemporalRelation] = {
        name: database[name] for name in hg.edge_names
    }
    post = _postorder(children, roots)
    for name in post:  # bottom-up: parent ⋉ child
        par = parent[name]
        if par is not None:
            reduced[par] = semijoin(reduced[par], reduced[name])
    for name in reversed(post):  # top-down: child ⋉ parent
        par = parent[name]
        if par is not None:
            reduced[name] = semijoin(reduced[name], reduced[par])

    if any(len(rel) == 0 for rel in reduced.values()):
        return JoinResultSet(out_attrs)

    # --------------------------------------------------------------
    # Enumeration: BFS down the tree, hash-joining child relations into
    # growing partial assignments. After the full reducer every partial
    # assignment extends to at least one full result, so the work is
    # O(K) modulo the interval pruning discussed in the module docstring.
    # --------------------------------------------------------------
    order = _preorder(children, roots)
    bound_attrs: List[str] = []
    bound_pos: Dict[str, int] = {}
    # Partial assignments carry their running intersection as plain
    # endpoints: max/min keep the running endpoint on a tie, as
    # ``Interval.intersect`` did, and one interval is built per row.
    partials: List[Tuple[Values, Number, Number]] = [((), _NEG_INF, _POS_INF)]
    for name in order:
        rel = reduced[name]
        on = [a for a in rel.attrs if a in bound_pos]
        extra = [a for a in rel.attrs if a not in bound_pos]
        extra_pos = rel.positions(extra)
        groups = rel.group_by(on)
        probe_pos = [bound_pos[a] for a in on]
        new_partials: List[Tuple[Values, Number, Number]] = []
        for values, lo, hi in partials:
            key = tuple(values[p] for p in probe_pos)
            for rvalues, rivl in groups.get(key, ()):
                if intersect_intervals:
                    rlo, rhi = rivl.lo, rivl.hi
                    joint_lo = rlo if rlo > lo else lo
                    joint_hi = rhi if rhi < hi else hi
                    if joint_lo > joint_hi:
                        continue
                else:
                    joint_lo, joint_hi = lo, hi
                new_partials.append(
                    (values + tuple(rvalues[p] for p in extra_pos), joint_lo, joint_hi)
                )
        partials = new_partials
        for a in extra:
            bound_pos[a] = len(bound_attrs)
            bound_attrs.append(a)
        if not partials:
            return JoinResultSet(out_attrs)

    # Re-layout into the requested attribute order.
    perm = [bound_pos[a] for a in out_attrs]
    result = JoinResultSet(out_attrs)
    for values, lo, hi in partials:
        result.append(tuple(values[p] for p in perm), _fast(lo, hi))
    return result


def _postorder(children: Mapping[str, List[str]], roots: List[str]) -> List[str]:
    out: List[str] = []

    def walk(node: str) -> None:
        for c in children.get(node, []):
            walk(c)
        out.append(node)

    for r in roots:
        walk(r)
    return out


def _preorder(children: Mapping[str, List[str]], roots: List[str]) -> List[str]:
    out: List[str] = []
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        out.append(node)
        for c in reversed(children.get(node, [])):
            stack.append(c)
    return out
