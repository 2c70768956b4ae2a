"""The §3.2 structure in the paper's comparison model.

:class:`~repro.algorithms.hierarchical.HierarchicalState` realizes the
Theorem 6 structure with hash maps (expected O(1) per step). The paper's
own description is comparison-based: "the set of distinct values over
attributes ``V_{p(u)}`` are stored in a binary-search tree as indexes.
Moreover, tuples in ``X_u(t)`` with the same value over attributes
``V_{p(u)}`` are stored in a min-heap by ``t_a^+``" — O(log N) per step,
O(N log N + K) overall.

:class:`ComparisonHierarchicalState` is that literal variant:

* per node, one sorted index (:class:`SortedList`) of member tuples,
  ordered lexicographically so each parent-key group is a contiguous
  run — the BST of the paper;
* support counts as a sorted *multiset* of keys (count = multiplicity);
* per leaf group, an addressable min-heap of active tuples keyed by
  their right endpoint — the paper's ``t^+`` heaps, which also expose
  :meth:`earliest_expiry` for introspection;
* no hash map touches a tuple value on the hot path (auxiliary
  per-group heap registry aside), so attribute domains must be totally
  ordered and mutually comparable within each attribute.

It is differential-tested against the hashed state and the oracle, and
an ablation bench compares their constants. Use the hashed state in
production; this one exists for fidelity and as the reference for the
complexity claims.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.classification import AttributeTree
from ..core.errors import QueryError
from ..core.interval import Interval, Number
from ..core.query import JoinQuery
from ..core.result import JoinResultSet
from ..datastructures.heap import AddressableHeap
from ..datastructures.sorted_list import SortedList
from ..obs import NULL_TRACER, Tracer
from .hierarchical import tuple_getter

Values = Tuple[object, ...]
#: ``(newly bound attrs, lo, hi)``, as in the hashed state.
Fragment = Tuple[Dict[str, object], Number, Number]

_NEG_INF = float("-inf")
_POS_INF = float("inf")
_fast = Interval._fast


class _SortedNodeState:
    """Per-node sorted containers (see module docstring)."""

    __slots__ = ("members", "support", "heaps")

    def __init__(self, is_leaf: bool) -> None:
        # Leaf: rows (pv, Interval); internal: member tuples over V_u.
        self.members: SortedList = SortedList()
        # Internal only: multiset of V_u keys; multiplicity = #children
        # currently offering the key.
        self.support: Optional[SortedList] = None if is_leaf else SortedList()
        # Leaf only: per-group min-heaps by right endpoint.
        self.heaps: Optional[Dict[Values, AddressableHeap]] = {} if is_leaf else None


def _group_run(members: SortedList, prefix: Values) -> List:
    """All entries whose first ``len(prefix)`` fields equal ``prefix``.

    Entries are flat tuples — internal-node member keys, or leaf rows
    laid out as ``path values + (interval,)`` — so lexicographic order
    makes each group a contiguous run, found with one bisect plus a scan
    bounded by the run length.
    """
    start = members.index_left(prefix)
    out = []
    for i in range(start, len(members)):
        entry = members[i]
        if entry[: len(prefix)] != prefix:
            break
        out.append(entry)
    return out


class ComparisonHierarchicalState:
    """Sweep state for Theorem 6 in the comparison model (O(log N) steps).

    :meth:`record` reports ``cm.heap_pushes`` / ``cm.heap_removes`` (the
    paper's per-group t⁺ heaps: one per INSERT / DELETE),
    ``cm.support_updates`` (sorted-multiset propagation steps, counted
    in a local per propagation) and ``cm.report_fragments`` (one per
    result row) to the ``stats`` tracer.
    """

    def __init__(
        self, query: JoinQuery, stats: Tracer = NULL_TRACER
    ) -> None:
        if not query.is_hierarchical:
            raise QueryError(
                f"ComparisonHierarchicalState requires a hierarchical query, "
                f"got {query!r}"
            )
        self.query = query
        self.tree = AttributeTree(query.hypergraph)
        nodes = self.tree.nodes
        self._state = [_SortedNodeState(node.is_leaf) for node in nodes]
        self._nchildren = [len(node.children) for node in nodes]
        self._path_len = [len(node.path_attrs) for node in nodes]
        self._parent_path_len = [
            0 if node.parent is None else len(nodes[node.parent].path_attrs)
            for node in nodes
        ]
        self._leaf_id = dict(self.tree.leaf_of_relation)
        self._perm = {}
        for name, leaf in self._leaf_id.items():
            eattrs = query.edge(name)
            pos = {a: i for i, a in enumerate(eattrs)}
            self._perm[name] = tuple(
                pos[a] for a in nodes[leaf].path_attrs
            )
        self._row_of = tuple_getter(query.attrs)
        self._seq = 0
        self._stats = stats
        self._support_updates = 0

    # ------------------------------------------------------------------
    def _path_values(self, relation: str, values: Values) -> Values:
        return tuple(values[i] for i in self._perm[relation])

    def insert(self, relation: str, values: Values, interval: Interval) -> None:
        leaf = self._leaf_id[relation]
        pv = self._path_values(relation, values)
        state = self._state[leaf]
        gkey = pv[: self._parent_path_len[leaf]]
        was_empty = not self._leaf_group_nonempty(leaf, gkey)
        state.members.add(pv + (interval,))
        heap = state.heaps.get(gkey)
        if heap is None:
            heap = AddressableHeap()
            state.heaps[gkey] = heap
        heap.push((interval.hi, self._seq), pv)
        self._seq += 1
        if was_empty:
            self._signal_nonempty(self.tree.nodes[leaf].parent, gkey)

    def delete(self, relation: str, values: Values, interval: Interval) -> None:
        leaf = self._leaf_id[relation]
        pv = self._path_values(relation, values)
        state = self._state[leaf]
        gkey = pv[: self._parent_path_len[leaf]]
        state.members.remove(pv + (interval,))
        heap = state.heaps[gkey]
        heap.remove(pv)
        if not heap:
            del state.heaps[gkey]
            self._signal_empty(self.tree.nodes[leaf].parent, gkey)

    def earliest_expiry(self, relation: str, group_key: Values) -> Optional[Number]:
        """The paper's heap query: smallest active t⁺ in a leaf group."""
        leaf = self._leaf_id[relation]
        heap = self._state[leaf].heaps.get(group_key)
        if not heap:
            return None
        (t_plus, _), _ = heap.peek()
        return t_plus

    # ------------------------------------------------------------------
    def _leaf_group_nonempty(self, leaf: int, gkey: Values) -> bool:
        return gkey in self._state[leaf].heaps

    def _member_present(self, node_id: int, key: Values) -> bool:
        support = self._state[node_id].support
        return support.count_range(key, key) == self._nchildren[node_id]

    def _group_nonempty(self, node_id: int, gkey: Values) -> bool:
        """Does node ``node_id`` have an X_u member with parent key gkey?"""
        node = self.tree.nodes[node_id]
        if node.is_leaf:
            return self._leaf_group_nonempty(node_id, gkey)
        members = self._state[node_id].members
        start = members.index_left(gkey)
        return (
            start < len(members)
            and members[start][: len(gkey)] == gkey
        )

    def _signal_nonempty(self, node_id: Optional[int], key: Values) -> None:
        steps = 0
        while node_id is not None:
            steps += 1
            state = self._state[node_id]
            state.support.add(key)
            if state.support.count_range(key, key) != self._nchildren[node_id]:
                break
            gkey = key[: self._parent_path_len[node_id]]
            group_was_empty = not self._group_nonempty(node_id, gkey)
            state.members.add(key)
            if not group_was_empty:
                break
            node_id = self.tree.nodes[node_id].parent
            key = gkey
        self._support_updates += steps

    def _signal_empty(self, node_id: Optional[int], key: Values) -> None:
        steps = 0
        while node_id is not None:
            steps += 1
            state = self._state[node_id]
            was_full = (
                state.support.count_range(key, key) == self._nchildren[node_id]
            )
            state.support.remove(key)
            if not was_full:
                break
            state.members.remove(key)
            gkey = key[: self._parent_path_len[node_id]]
            if self._group_nonempty(node_id, gkey):
                break
            node_id = self.tree.nodes[node_id].parent
            key = gkey
        self._support_updates += steps

    def record(self, inserts: int, deletes: int, rows: int) -> None:
        """Report the ``cm.*`` counters since the last call (see the class)."""
        stats = self._stats
        if inserts:
            stats.incr("cm.heap_pushes", inserts)
        if deletes:
            stats.incr("cm.heap_removes", deletes)
        if self._support_updates:
            stats.incr("cm.support_updates", self._support_updates)
            self._support_updates = 0
        if rows:
            stats.incr("cm.report_fragments", rows)

    # ------------------------------------------------------------------
    def enumerate_results(
        self,
        relation: str,
        values: Values,
        interval: Interval,
        out: JoinResultSet,
    ) -> None:
        leaf = self._leaf_id[relation]
        pv = self._path_values(relation, values)
        node_id = self.tree.nodes[leaf].parent
        while node_id is not None:
            key = pv[: self._path_len[node_id]]
            if not self._member_present(node_id, key):
                return
            node_id = self.tree.nodes[node_id].parent
        binding: Dict[str, object] = dict(
            zip(self.tree.nodes[leaf].path_attrs, pv)
        )
        fragments = self._report(self.tree.root.node_id, binding)
        row_of = self._row_of
        for fragment, lo, hi in fragments:
            out.append(row_of({**binding, **fragment}), _fast(lo, hi))

    def _report(self, node_id: int, binding: Dict[str, object]) -> List[Fragment]:
        node = self.tree.nodes[node_id]
        state = self._state[node_id]

        if node.is_leaf:
            glen = self._parent_path_len[node_id]
            path = node.path_attrs
            if node.attr is None or node.attr in binding:
                key = tuple(binding[a] for a in path)
                run = _group_run(state.members, key)
                return [({}, entry[-1].lo, entry[-1].hi) for entry in run]
            gkey = tuple(binding[a] for a in path[:glen])
            run = _group_run(state.members, gkey)
            attr = node.attr
            return [
                ({attr: entry[-2]}, entry[-1].lo, entry[-1].hi) for entry in run
            ]

        if node.attr is None or node.attr in binding:
            return self._product_of_children(node_id, binding)

        glen = self._parent_path_len[node_id]
        gkey = tuple(binding[a] for a in node.path_attrs[:glen])
        run = _group_run(state.members, gkey)
        results: List[Fragment] = []
        attr = node.attr
        for member in run:
            value = member[-1]
            binding[attr] = value
            for fragment, lo, hi in self._product_of_children(node_id, binding):
                results.append(({**fragment, attr: value}, lo, hi))
            del binding[attr]
        return results

    def _product_of_children(
        self, node_id: int, binding: Dict[str, object]
    ) -> List[Fragment]:
        """Cartesian combination of child REPORTs, on plain endpoints.

        Same tie order as :meth:`Interval.intersect` (the running
        endpoint survives a tie), like the hashed state.
        """
        combined: List[Fragment] = [({}, _NEG_INF, _POS_INF)]
        for child in self.tree.nodes[node_id].children:
            child_fragments = self._report(child, binding)
            if not child_fragments:
                return []
            new: List[Fragment] = []
            for fragment, lo, hi in combined:
                for cfragment, clo, chi in child_fragments:
                    jlo = clo if clo > lo else lo
                    jhi = chi if chi < hi else hi
                    if jlo > jhi:
                        continue
                    new.append(
                        ({**fragment, **cfragment} if cfragment else fragment, jlo, jhi)
                    )
            combined = new
            if not combined:
                return []
        return combined
