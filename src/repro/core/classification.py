"""Query classification: hierarchical, r-hierarchical, attribute trees.

Section 2.2 of the paper classifies join queries into hierarchical ⊂
acyclic ⊂ general, and Section 3.2 builds the near-linear temporal join on
the *attribute tree* of a hierarchical query. This module implements:

* :func:`is_hierarchical` — the ``E_x ⊆ E_y ∨ E_y ⊆ E_x ∨ E_x ∩ E_y = ∅``
  test;
* :func:`is_r_hierarchical` — hierarchical after reduction (removal of
  edges contained in other edges);
* :func:`reduce_instance` — footnote 2's linear-time instance reduction:
  absorbing ``R_e`` into ``R_{e'}`` (``e ⊆ e'``) via a semijoin that
  intersects valid intervals;
* :class:`AttributeTree` — the attribute tree *and* generalized join tree
  of Figure 5, with relation leaves, used directly by the hierarchical
  sweep state;
* :func:`classify` — the coarse :class:`QueryClass` used by the planner.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from .errors import QueryError
from .hypergraph import Hypergraph
from .relation import TemporalRelation


class QueryClass(enum.Enum):
    """Coarse complexity class of a join query (Figure 3 / Figure 7)."""

    HIERARCHICAL = "hierarchical"
    R_HIERARCHICAL = "r-hierarchical"
    ACYCLIC = "acyclic"  # acyclic but not r-hierarchical
    CYCLIC = "cyclic"


def is_hierarchical(hg: Hypergraph) -> bool:
    """True iff for all attribute pairs, ``E_x`` and ``E_y`` are nested or disjoint."""
    attrs = hg.attrs
    edge_sets = {a: hg.edges_of(a) for a in attrs}
    for i, x in enumerate(attrs):
        ex = edge_sets[x]
        for y in attrs[i + 1 :]:
            ey = edge_sets[y]
            if ex <= ey or ey <= ex:
                continue
            if ex & ey:
                return False
    return True


def is_r_hierarchical(hg: Hypergraph) -> bool:
    """True iff the *reduced* query (no edge contained in another) is hierarchical."""
    reduced, _ = hg.reduce()
    return is_hierarchical(reduced)


def classify(hg: Hypergraph) -> QueryClass:
    """Classify a query per the paper's hierarchy of classes.

    ``HIERARCHICAL`` is reported only when the query is hierarchical as
    given; queries that become hierarchical after reduction are reported as
    ``R_HIERARCHICAL`` (they still admit the near-linear algorithm after
    the footnote-2 instance reduction).
    """
    if is_hierarchical(hg):
        return QueryClass.HIERARCHICAL
    if is_r_hierarchical(hg):
        return QueryClass.R_HIERARCHICAL
    if hg.is_acyclic():
        return QueryClass.ACYCLIC
    return QueryClass.CYCLIC


def reduce_instance(
    hg: Hypergraph, database: Mapping[str, TemporalRelation]
) -> Tuple[Hypergraph, Dict[str, TemporalRelation]]:
    """Reduce a temporal instance per footnote 2 of the paper.

    For every absorbed edge ``e ⊆ e'``, replace ``R_{e'}`` by

    ``{⟨a, I_a ∩ I_b⟩ | a ∈ R_{e'}, b ∈ R_e, b = π_e(a)}``

    dropping tuples whose interval intersection is empty. Because tuples in
    ``R_e`` are distinct, each ``a`` matches at most one ``b``, so the
    absorption is a hash lookup per tuple — linear time overall.

    Returns the reduced hypergraph and the new database restricted to the
    surviving edges. The temporal join of the reduced instance equals the
    temporal join of the original projected onto the same attributes — for
    r-hierarchical queries this turns the instance into one a hierarchical
    algorithm can process.
    """
    reduced, absorbed = hg.reduce()
    db: Dict[str, TemporalRelation] = {
        name: database[name] for name in reduced.edge_names
    }
    # Absorption hosts may themselves chain (e ⊆ e' ⊆ e''): resolve to the
    # surviving host.
    def resolve(name: str) -> str:
        while name in absorbed:
            name = absorbed[name]
        return name

    for small_name, host_name in absorbed.items():
        host_name = resolve(host_name)
        small = database[small_name]
        host = db[host_name]
        small_attrs = list(small.attrs)
        lookup = {values: interval for values, interval in small}
        pos = host.positions(small_attrs)
        rows = []
        for values, interval in host:
            key = tuple(values[p] for p in pos)
            other = lookup.get(key)
            if other is None:
                continue
            joint = interval.intersect(other)
            if joint is not None:
                rows.append((values, joint))
        db[host_name] = TemporalRelation(host.name, host.attrs, rows)
    return reduced, db


# ----------------------------------------------------------------------
# Attribute tree / generalized join tree (Figure 5)
# ----------------------------------------------------------------------
@dataclass
class AttrNode:
    """One node of the generalized join tree.

    ``path_attrs`` is the paper's ``V_u`` — the attributes on the path from
    the node to the root. ``relation`` is set on leaves only and names the
    query hyperedge whose attribute set equals ``path_attrs``.
    """

    node_id: int
    attr: Optional[str]  # None for the virtual root and for relation leaves
    parent: Optional[int]
    path_attrs: Tuple[str, ...]
    children: List[int] = field(default_factory=list)
    relation: Optional[str] = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


class AttributeTree:
    """The attribute tree of a hierarchical query, with relation leaves.

    Construction (Section 3.2): attributes are ordered by containment of
    their incidence sets ``E_x``; ``x`` is a descendant of ``y`` when
    ``E_x ⊆ E_y``. Attributes with *equal* incidence sets are chained in a
    deterministic order (they always co-occur, so any order is valid). A
    virtual root joins the components of non-connected queries. Finally,
    each relation ``e`` whose deepest attribute node is internal receives an
    explicit relation leaf ``w`` with ``V_w = e`` so that every relation is
    a root-to-leaf path.

    The tree depends only on the query, never on the data (the dynamic
    per-node sets live in :class:`repro.algorithms.hierarchical`).
    """

    def __init__(self, hg: Hypergraph) -> None:
        if not is_hierarchical(hg):
            raise QueryError(
                "attribute tree requires a hierarchical query; got "
                f"{hg!r} (classify() = {classify(hg).value})"
            )
        self.hypergraph = hg
        self.nodes: List[AttrNode] = []
        self.leaf_of_relation: Dict[str, int] = {}
        self._build()

    # ------------------------------------------------------------------
    def _new_node(
        self,
        attr: Optional[str],
        parent: Optional[int],
        path_attrs: Tuple[str, ...],
        relation: Optional[str] = None,
    ) -> int:
        node_id = len(self.nodes)
        node = AttrNode(node_id, attr, parent, path_attrs, relation=relation)
        self.nodes.append(node)
        if parent is not None:
            self.nodes[parent].children.append(node_id)
        return node_id

    def _build(self) -> None:
        hg = self.hypergraph
        incidence: Dict[str, FrozenSet[str]] = {a: hg.edges_of(a) for a in hg.attrs}

        # Group attributes with identical incidence sets; they form chains.
        groups: Dict[FrozenSet[str], List[str]] = {}
        for a in hg.attrs:
            groups.setdefault(incidence[a], []).append(a)

        # Parent group of a group g: the group with the smallest strict
        # superset incidence. Hierarchy guarantees uniqueness.
        group_keys = sorted(groups, key=lambda s: (-len(s), sorted(s)))
        parent_group: Dict[FrozenSet[str], Optional[FrozenSet[str]]] = {}
        for g in group_keys:
            best: Optional[FrozenSet[str]] = None
            for h in group_keys:
                if h == g or not (g < h):
                    continue
                if best is None or h < best:
                    best = h
            parent_group[g] = best

        root = self._new_node(None, None, ())
        self._root_id = root

        # Materialize groups top-down; each group becomes a chain of
        # attribute nodes.
        chain_bottom: Dict[FrozenSet[str], int] = {}
        remaining = list(group_keys)
        while remaining:
            progressed = False
            for g in list(remaining):
                pg = parent_group[g]
                if pg is not None and pg not in chain_bottom:
                    continue
                parent_id = root if pg is None else chain_bottom[pg]
                for attr in sorted(groups[g]):
                    path = self.nodes[parent_id].path_attrs + (attr,)
                    parent_id = self._new_node(attr, parent_id, path)
                chain_bottom[g] = parent_id
                remaining.remove(g)
                progressed = True
            if not progressed:  # pragma: no cover - defensive
                raise QueryError("attribute tree construction did not converge")

        # Attach relation leaves. The deepest attribute of relation e is the
        # one whose incidence set is the smallest among e's attributes.
        path_index: Dict[Tuple[str, ...], int] = {
            tuple(sorted(n.path_attrs)): n.node_id
            for n in self.nodes
            if n.attr is not None
        }
        for name in hg.edge_names:
            eattrs = tuple(sorted(hg.edge(name)))
            try:
                deepest = path_index[eattrs]
            except KeyError:  # pragma: no cover - guarded by hierarchy proof
                raise QueryError(
                    f"relation {name!r} does not form a root path in the "
                    "attribute tree; query is not hierarchical"
                ) from None
            node = self.nodes[deepest]
            if node.is_leaf and node.relation is None:
                node.relation = name
                self.leaf_of_relation[name] = node.node_id
            else:
                leaf = self._new_node(None, deepest, node.path_attrs, relation=name)
                self.leaf_of_relation[name] = leaf

        # A node that held a relation but later received children must move
        # its relation to an explicit leaf: fix in a second pass.
        for node in list(self.nodes):
            if node.relation is not None and node.children:
                leaf = self._new_node(None, node.node_id, node.path_attrs,
                                      relation=node.relation)
                self.leaf_of_relation[node.relation] = leaf
                node.relation = None

    # ------------------------------------------------------------------
    @property
    def root(self) -> AttrNode:
        return self.nodes[self._root_id]

    def node(self, node_id: int) -> AttrNode:
        return self.nodes[node_id]

    def parent(self, node_id: int) -> Optional[AttrNode]:
        p = self.nodes[node_id].parent
        return None if p is None else self.nodes[p]

    def path_to_root(self, node_id: int) -> List[AttrNode]:
        """Nodes from ``node_id`` (inclusive) up to and including the root."""
        out = []
        cur: Optional[int] = node_id
        while cur is not None:
            node = self.nodes[cur]
            out.append(node)
            cur = node.parent
        return out

    def leaves(self) -> List[AttrNode]:
        return [n for n in self.nodes if n.is_leaf]

    def depth(self) -> int:
        """Longest root-to-leaf path length (O(1) in the query size)."""
        best = 0
        for leaf in self.leaves():
            best = max(best, len(self.path_to_root(leaf.node_id)) - 1)
        return best

    def pretty(self) -> str:
        """ASCII rendering used by ``planner.explain()`` and the Table 1 bench."""
        lines: List[str] = []

        def walk(node_id: int, indent: int) -> None:
            node = self.nodes[node_id]
            if node.attr is not None:
                label = node.attr
                if node.relation is not None:
                    label = f"{node.attr} leaf[{node.relation}]"
            elif node.relation is not None:
                label = f"leaf[{node.relation}: {','.join(node.path_attrs)}]"
            else:
                label = "(root)"
            lines.append("  " * indent + label)
            for c in node.children:
                walk(c, indent + 1)

        walk(self._root_id, 0)
        return "\n".join(lines)
