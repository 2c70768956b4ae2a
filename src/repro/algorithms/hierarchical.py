"""The §3.2 dynamic structure for hierarchical temporal joins.

This is the data structure ``D`` of Theorem 6, built on the attribute tree
/ generalized join tree of Figure 5. Each tree node ``u`` maintains
``X_u`` — the projection onto ``V_u`` (the root-to-``u`` path attributes)
of the join of the *active* tuples stored at the leaves of ``u``'s
subtree (Lemma 3):

    ``X_u = ∩_{v ∈ C(u)} π_u(X_v)``

Implementation notes
--------------------
* ``V_{p(u)}`` is always a prefix of ``V_u``, so every projection in the
  structure is a tuple-prefix slice — no per-operation attribute
  arithmetic.
* Internal nodes maintain ``X_u`` by *support counting*: a ``V_u`` tuple
  is present iff all ``|C(u)|`` children have a non-empty group for it.
  Insert/delete transitions propagate upward only while a group flips
  between empty and non-empty, so each tuple update costs O(depth) = O(1)
  dictionary operations — in the comparison model of the paper this is
  the O(log N) update of Theorem 6; hashing makes it expected O(1).
* ENUMERATE follows Algorithm 2 (root-path membership check) and REPORT
  follows Algorithm 3 / Lemma 4, returning per-subtree fragment lists
  that are Cartesian-combined at internal nodes. Every recursive call is
  guaranteed at least one output, which yields the O(K(a)) enumeration
  bound.
* Fragments carry their interval as two plain endpoints, intersected
  inline, so the only :class:`Interval` REPORT builds is the one per
  emitted result row.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.classification import AttributeTree
from ..core.errors import QueryError
from ..core.interval import Interval, Number
from ..core.query import JoinQuery
from ..core.result import JoinResultSet
from ..obs import ExecutionStats

Values = Tuple[object, ...]
#: ``(newly bound attrs, lo, hi)``: a partial result and its interval.
Fragment = Tuple[Dict[str, object], Number, Number]

_NEG_INF = float("-inf")
_POS_INF = float("inf")
_fast = Interval._fast


def tuple_getter(keys: Sequence) -> Callable[..., Values]:
    """``itemgetter`` that always returns a tuple (also for 0 or 1 key)."""
    if len(keys) == 1:
        key = keys[0]
        return lambda values: (values[key],)
    return itemgetter(*keys) if keys else (lambda values: ())


class _NodeState:
    """Per-node dynamic state (leaf rows or internal support counters)."""

    __slots__ = ("groups", "support", "members")

    def __init__(self, is_leaf: bool) -> None:
        if is_leaf:
            # group key (V_parent tuple) -> {V_node tuple -> Interval}
            self.groups: Dict[Values, Dict[Values, Interval]] = {}
            self.support = None
            self.members = None
        else:
            self.groups = None
            # V_node tuple -> number of children with a non-empty group
            self.support: Dict[Values, int] = {}
            # group key (V_parent tuple) -> set of member V_node tuples
            self.members: Dict[Values, Set[Values]] = {}


class HierarchicalState:
    """Sweep state implementing Theorem 6 for hierarchical queries.

    With a ``stats`` tracer attached the state reports ``hier.inserts`` /
    ``hier.deletes`` (leaf ``X_u`` set operations), ``hier.support_updates``
    (support-count transitions walked during upward propagation) and
    ``hier.report_fragments`` (fragments returned by Algorithm 3). The
    ``stats=None`` path adds only a predicate on a local per operation.
    """

    def __init__(
        self, query: JoinQuery, stats: Optional[ExecutionStats] = None
    ) -> None:
        if not query.is_hierarchical:
            raise QueryError(
                f"HierarchicalState requires a hierarchical query, got {query!r}; "
                "r-hierarchical queries must be reduced first "
                "(core.classification.reduce_instance)"
            )
        self.query = query
        self.tree = AttributeTree(query.hypergraph)
        nodes = self.tree.nodes
        self._state: List[_NodeState] = [
            _NodeState(is_leaf=node.is_leaf) for node in nodes
        ]
        self._nchildren: List[int] = [len(node.children) for node in nodes]
        self._path_len: List[int] = [len(node.path_attrs) for node in nodes]
        self._parent_path_len: List[int] = [
            0 if node.parent is None else len(nodes[node.parent].path_attrs)
            for node in nodes
        ]
        # Per relation: permutation from the query edge's attribute order
        # to the leaf's path order, and the leaf id.
        self._leaf_id: Dict[str, int] = dict(self.tree.leaf_of_relation)
        self._perm: Dict[str, Tuple[int, ...]] = {}
        for name, leaf in self._leaf_id.items():
            eattrs = query.edge(name)
            path = nodes[leaf].path_attrs
            pos = {a: i for i, a in enumerate(eattrs)}
            self._perm[name] = tuple(pos[a] for a in path)
        # Output row from a {attr: value} dict, in query.attrs order.
        self._row_of = tuple_getter(query.attrs)
        self._stats = stats

    # ------------------------------------------------------------------
    # INSERT / DELETE with upward propagation
    # ------------------------------------------------------------------
    def _path_values(self, relation: str, values: Values) -> Values:
        """Reorder a relation tuple into its leaf's path-attribute order."""
        return tuple(values[i] for i in self._perm[relation])

    def insert(self, relation: str, values: Values, interval: Interval) -> None:
        leaf = self._leaf_id[relation]
        pv = self._path_values(relation, values)
        gkey = pv[: self._parent_path_len[leaf]]
        groups = self._state[leaf].groups
        if self._stats is not None:
            self._stats.incr("hier.inserts")
        bucket = groups.get(gkey)
        if bucket is None:
            bucket = {pv: interval}
            groups[gkey] = bucket
            self._signal_nonempty(self.tree.nodes[leaf].parent, gkey)
        else:
            if pv in bucket:
                # The model requires distinct tuples per relation; a silent
                # overwrite here would corrupt the delete bookkeeping.
                raise QueryError(
                    f"duplicate active tuple {pv} in relation {relation!r}; "
                    "the temporal model requires distinct tuples "
                    "(see IntervalSet/explode_interval_sets for "
                    "multi-interval data)"
                )
            bucket[pv] = interval

    def delete(self, relation: str, values: Values, interval: Interval) -> None:
        leaf = self._leaf_id[relation]
        pv = self._path_values(relation, values)
        gkey = pv[: self._parent_path_len[leaf]]
        groups = self._state[leaf].groups
        if self._stats is not None:
            self._stats.incr("hier.deletes")
        bucket = groups[gkey]
        del bucket[pv]
        if not bucket:
            del groups[gkey]
            self._signal_empty(self.tree.nodes[leaf].parent, gkey)

    def _signal_nonempty(self, node_id: Optional[int], key: Values) -> None:
        """A child's group ``key`` (a ``V_node`` tuple) became non-empty."""
        st = self._stats
        while node_id is not None:
            if st is not None:
                st.incr("hier.support_updates")
            state = self._state[node_id]
            count = state.support.get(key, 0) + 1
            state.support[key] = count
            if count != self._nchildren[node_id]:
                return
            # key joins X_node.
            gkey = key[: self._parent_path_len[node_id]]
            members = state.members.get(gkey)
            if members is None:
                members = set()
                state.members[gkey] = members
                members.add(key)
                node_id = self.tree.nodes[node_id].parent
                key = gkey
                continue  # group flipped non-empty: propagate
            members.add(key)
            return

    def _signal_empty(self, node_id: Optional[int], key: Values) -> None:
        """A child's group ``key`` became empty."""
        st = self._stats
        while node_id is not None:
            if st is not None:
                st.incr("hier.support_updates")
            state = self._state[node_id]
            count = state.support[key] - 1
            was_full = state.support[key] == self._nchildren[node_id]
            if count == 0:
                del state.support[key]
            else:
                state.support[key] = count
            if not was_full:
                return
            gkey = key[: self._parent_path_len[node_id]]
            members = state.members[gkey]
            members.discard(key)
            if members:
                return
            del state.members[gkey]
            node_id = self.tree.nodes[node_id].parent
            key = gkey

    # ------------------------------------------------------------------
    # ENUMERATE (Algorithm 2) + REPORT (Algorithm 3)
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
        # Algorithm 2: walk leaf -> root checking membership of π_u(a).
        node_id = self.tree.nodes[leaf].parent
        while node_id is not None:
            state = self._state[node_id]
            key = pv[: self._path_len[node_id]]
            if state.support.get(key, 0) != self._nchildren[node_id]:
                return
            node_id = self.tree.nodes[node_id].parent
        # Algorithm 3 from the root.
        binding: Dict[str, object] = {}
        leaf_path = self.tree.nodes[leaf].path_attrs
        for attr, value in zip(leaf_path, pv):
            binding[attr] = value
        fragments = self._report(self.tree.root.node_id, binding)
        if self._stats is not None:
            self._stats.incr("hier.report_fragments", len(fragments))
        row_of = self._row_of
        append = out.append
        for fragment, lo, hi in fragments:
            append(row_of({**binding, **fragment}), _fast(lo, hi))

    def _report(self, node_id: int, binding: Dict[str, object]) -> List[Fragment]:
        """Lemma 4: join results of the subtree, compatible with ``binding``.

        Returns fragments ``(newly bound attrs, lo, hi)``; ``[lo, hi]``
        is the intersection of the intervals of all leaf tuples used in
        the fragment.
        """
        node = self.tree.nodes[node_id]
        state = self._state[node_id]

        if node.is_leaf:
            glen = self._parent_path_len[node_id]
            path = node.path_attrs
            if node.attr is None or node.attr in binding:
                # Fully bound: exact lookup (semi-join with a single row).
                key = tuple(binding[a] for a in path)
                bucket = state.groups.get(key[:glen])
                if bucket is None:
                    return []
                hit = bucket.get(key)
                return [] if hit is None else [({}, hit.lo, hit.hi)]
            gkey = tuple(binding[a] for a in path[:glen])
            bucket = state.groups.get(gkey)
            if bucket is None:
                return []
            attr = node.attr
            return [({attr: pv[-1]}, ivl.lo, ivl.hi) for pv, ivl in bucket.items()]

        if node.attr is None or node.attr in binding:
            # Case 2: V_u ⊆ supp(binding) — Cartesian product of children.
            return self._product_of_children(node_id, binding)

        # Case 3: extend binding with every member of the matching group.
        glen = self._parent_path_len[node_id]
        gkey = tuple(binding[a] for a in node.path_attrs[:glen])
        members = state.members.get(gkey)
        if not members:
            return []
        attr = node.attr
        results: List[Fragment] = []
        for member in list(members):
            value = member[-1]
            binding[attr] = value
            for fragment, lo, hi in self._product_of_children(node_id, binding):
                results.append(({**fragment, attr: value}, lo, hi))
            del binding[attr]
        return results

    def _product_of_children(
        self, node_id: int, binding: Dict[str, object]
    ) -> List[Fragment]:
        """Cartesian combination of child REPORTs (Algorithm 3, line 7).

        Endpoints intersect inline in :meth:`Interval.intersect`'s
        argument order: the running ``lo``/``hi`` survive a tie, so
        equal endpoints of different types (``1``/``1.0``) keep the same
        representative.
        """
        combined: List[Fragment] = [({}, _NEG_INF, _POS_INF)]
        for child in self.tree.nodes[node_id].children:
            child_fragments = self._report(child, binding)
            if not child_fragments:
                return []
            new: List[Fragment] = []
            append = new.append
            for fragment, lo, hi in combined:
                for cfragment, clo, chi in child_fragments:
                    jlo = clo if clo > lo else lo
                    jhi = chi if chi < hi else hi
                    if jlo > jhi:
                        continue
                    append(
                        ({**fragment, **cfragment} if cfragment else fragment, jlo, jhi)
                    )
            combined = new
            if not combined:
                return []
        return combined
