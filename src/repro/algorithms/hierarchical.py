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
* REPORT is compiled once per relation leaf, on the leaf's first emit,
  into closures over the node states (:meth:`HierarchicalState._compile`).
  Fragments are value tuples in a fixed per-node attribute order and
  carry their interval as two plain endpoints, intersected inline; each
  result row is one positional getter over the path values and the
  root's fragment, with the one :class:`Interval` REPORT builds for it.
  A kernel state can compile the same programs to decode interned values
  and undo the τ/2 shrink as they emit (:mod:`repro.kernels.hierarchy`).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.classification import AttributeTree
from ..core.errors import QueryError
from ..core.interval import Interval, Number
from ..core.query import JoinQuery
from ..core.result import JoinResultSet
from ..obs import NULL_TRACER, Tracer

Values = Tuple[object, ...]
#: ``(values, lo, hi)``: the values a subtree binds, in the node's
#: attribute order, and the interval of that partial result.
Fragment = Tuple[Values, Number, Number]
#: A compiled subtree REPORT: ``report(pv, key) -> fragments``.
Report = Callable[[Values, Values], List[Fragment]]
#: A compiled leaf REPORT: ``program(pv, out)`` appends the results.
Program = Callable[[Values, JoinResultSet], None]

_NEG_INF = float("-inf")
_POS_INF = float("inf")
_new = object.__new__
_put = object.__setattr__
_getitem = list.__getitem__


def tuple_getter(keys: Sequence) -> Callable[..., Values]:
    """``itemgetter`` that always returns a tuple (also for 0 or 1 key)."""
    if len(keys) == 1:
        key = keys[0]
        return lambda values: (values[key],)
    return itemgetter(*keys) if keys else (lambda values: ())


def duplicate_tuple(relation: str, values: Values) -> QueryError:
    """The error for a tuple inserted while an equal one is still active."""
    return QueryError(
        f"duplicate active tuple {tuple(values)} in relation {relation!r}; "
        "the temporal model requires distinct tuples (see IntervalSet/"
        "explode_interval_sets for multi-interval data)"
    )


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

    :meth:`record` reports ``hier.inserts`` / ``hier.deletes`` (leaf
    ``X_u`` set operations), ``hier.support_updates`` (support-count
    transitions walked during upward propagation) and
    ``hier.report_fragments`` (fragments returned by Algorithm 3) to the
    ``stats`` tracer. Only the support transitions are counted as the
    state runs, one local per propagation; the rest are the caller's
    totals: every fragment becomes one result row.
    """

    def __init__(self, query: JoinQuery, stats: Tracer = NULL_TRACER) -> None:
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
        self._stats = stats
        self._support_updates = 0
        # Compiled REPORT per leaf id, built on the leaf's first emit.
        self._programs: List[Optional[Program]] = [None] * len(nodes)
        # Emission mode of the programs: decode values through these
        # domains and widen intervals by this amount (kernel final rows).
        self._decode: Optional[Mapping[str, List[object]]] = None
        self._half: Number = 0

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
        bucket = groups.get(gkey)
        if bucket is None:
            bucket = {pv: interval}
            groups[gkey] = bucket
            self._signal_nonempty(self.tree.nodes[leaf].parent, gkey)
        else:
            if pv in bucket:
                # The model requires distinct tuples per relation; a silent
                # overwrite here would corrupt the delete bookkeeping.
                raise duplicate_tuple(relation, values)
            bucket[pv] = interval

    def delete(self, relation: str, values: Values, interval: Interval) -> None:
        leaf = self._leaf_id[relation]
        pv = self._path_values(relation, values)
        gkey = pv[: self._parent_path_len[leaf]]
        groups = self._state[leaf].groups
        bucket = groups[gkey]
        del bucket[pv]
        if not bucket:
            del groups[gkey]
            self._signal_empty(self.tree.nodes[leaf].parent, gkey)

    def _signal_nonempty(self, node_id: Optional[int], key: Values) -> None:
        """A child's group ``key`` (a ``V_node`` tuple) became non-empty."""
        steps = 0
        while node_id is not None:
            steps += 1
            state = self._state[node_id]
            count = state.support.get(key, 0) + 1
            state.support[key] = count
            if count != self._nchildren[node_id]:
                break
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
            break
        self._support_updates += steps

    def _signal_empty(self, node_id: Optional[int], key: Values) -> None:
        """A child's group ``key`` became empty."""
        steps = 0
        while node_id is not None:
            steps += 1
            state = self._state[node_id]
            count = state.support[key] - 1
            was_full = state.support[key] == self._nchildren[node_id]
            if count == 0:
                del state.support[key]
            else:
                state.support[key] = count
            if not was_full:
                break
            gkey = key[: self._parent_path_len[node_id]]
            members = state.members[gkey]
            members.discard(key)
            if members:
                break
            del state.members[gkey]
            node_id = self.tree.nodes[node_id].parent
            key = gkey
        self._support_updates += steps

    def record(self, inserts: int, deletes: int, rows: int) -> None:
        """Report the ``hier.*`` counters since the last call (see the class).

        A counter with nothing to add is not touched, as if it had been
        counted operation by operation.
        """
        stats = self._stats
        if inserts:
            stats.incr("hier.inserts", inserts)
        if deletes:
            stats.incr("hier.deletes", deletes)
        if self._support_updates:
            stats.incr("hier.support_updates", self._support_updates)
            self._support_updates = 0
        if rows:
            stats.incr("hier.report_fragments", rows)

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
        program = self._programs[leaf]
        if program is None:
            program = self._programs[leaf] = self._compile(leaf)
        program(pv, out)

    def _compile(self, leaf: int) -> Program:
        """Algorithm 3 from the root, compiled for tuples of one leaf.

        Which case of Lemma 4 applies at a node depends only on the leaf:
        the root and the leaf's ancestors are bound by the leaf's path
        values (case 2, a product of the children), every other attribute
        node extends the partial result by its members (case 3). So the
        program holds one closure per node and no binding: a node's group
        key is a prefix of the path values on the leaf's root path, and
        the member tuple below a case-3 node.

        The program appends each result row with its interval: values
        decoded through ``self._decode`` and endpoints widened by
        ``self._half`` when those are set (kernel routes that emit final
        rows), else as stored in the state.
        """
        nodes = self.tree.nodes
        on_path = set()
        node_id: Optional[int] = leaf
        while node_id is not None:
            on_path.add(node_id)
            node_id = nodes[node_id].parent
        report, fragment_attrs = self._compile_node(self.tree.root.node_id, leaf, on_path)
        path = nodes[leaf].path_attrs
        position = {attr: i for i, attr in enumerate(path + fragment_attrs)}
        row_of = tuple_getter([position[attr] for attr in self.query.attrs])
        domains = self._decode
        if domains is None:
            bound_of: Callable[[Values], Values] = _same
        else:
            tables = [domains[attr] for attr in path]
            bound_of = lambda pv: tuple(map(_getitem, tables, pv))  # noqa: E731
        half = self._half

        if not half:
            def program(pv: Values, out: JoinResultSet) -> None:
                fragments = report(pv, ())
                if not fragments:
                    return
                bound = bound_of(pv)
                append = out.rows.append
                for fragment, lo, hi in fragments:
                    # Interval._fast inlined: lo <= hi holds by REPORT.
                    interval = _new(Interval)
                    _put(interval, "lo", lo)
                    _put(interval, "hi", hi)
                    append((row_of(bound + fragment), interval))

            return program

        def widening_program(pv: Values, out: JoinResultSet) -> None:
            fragments = report(pv, ())
            if not fragments:
                return
            bound = bound_of(pv)
            append = out.rows.append
            for fragment, lo, hi in fragments:
                # JoinResultSet.expand_intervals' arithmetic: infinite
                # endpoints are fixed points, and widening keeps lo <= hi.
                if lo > _NEG_INF:
                    lo = lo - half
                if hi < _POS_INF:
                    hi = hi + half
                interval = _new(Interval)
                _put(interval, "lo", lo)
                _put(interval, "hi", hi)
                append((row_of(bound + fragment), interval))

        return widening_program

    def _compile_node(
        self, node_id: int, leaf: int, on_path: Set[int]
    ) -> Tuple[Report, Tuple[str, ...]]:
        """Lemma 4 for the subtree of ``node_id``, as ``report(pv, key)``.

        ``key`` is the parent's ``V`` tuple. The closure returns fragments
        ``(values, lo, hi)``: the values of the attributes the subtree
        binds, in the order returned next to the closure, and the
        intersection ``[lo, hi]`` of the intervals of the leaf tuples used.
        """
        node = self.tree.nodes[node_id]
        state = self._state[node_id]
        domains = self._decode

        if node.is_leaf:
            groups = state.groups
            if node_id == leaf:
                # The expiring tuple's own leaf: an exact lookup.
                def own(pv: Values, key: Values) -> List[Fragment]:
                    bucket = groups.get(key)
                    hit = None if bucket is None else bucket.get(pv)
                    return [] if hit is None else [((), hit.lo, hit.hi)]

                return own, ()
            if node.attr is None:
                # A relation leaf below its deepest attribute: V_w is the
                # parent's V, so ``key`` binds it fully.
                def bound(pv: Values, key: Values) -> List[Fragment]:
                    bucket = groups.get(key)
                    hit = None if bucket is None else bucket.get(key)
                    return [] if hit is None else [((), hit.lo, hit.hi)]

                return bound, ()
            if domains is None:
                def extend(pv: Values, key: Values) -> List[Fragment]:
                    bucket = groups.get(key)
                    if bucket is None:
                        return []
                    return [((v[-1],), i.lo, i.hi) for v, i in bucket.items()]
            else:
                table = domains[node.attr]

                def extend(pv: Values, key: Values) -> List[Fragment]:
                    bucket = groups.get(key)
                    if bucket is None:
                        return []
                    return [((table[v[-1]],), i.lo, i.hi) for v, i in bucket.items()]

            return extend, (node.attr,)

        compiled = [self._compile_node(child, leaf, on_path) for child in node.children]
        product = _product([report for report, _ in compiled])
        attrs = tuple(attr for _, child_attrs in compiled for attr in child_attrs)

        if node_id in on_path:
            # Case 2: V_u is bound by the path values -- product of children.
            vlen = self._path_len[node_id]
            return (lambda pv, key: product(pv, pv[:vlen])), attrs

        # Case 3: extend the partial result by every member of the group.
        members_of = state.members
        if domains is None:
            value_of: Callable[[Values], object] = itemgetter(-1)
        else:
            table = domains[node.attr]
            value_of = lambda member: table[member[-1]]  # noqa: E731

        def members(pv: Values, key: Values) -> List[Fragment]:
            group = members_of.get(key)
            if not group:
                return []
            results: List[Fragment] = []
            append = results.append
            for member in list(group):
                value = (value_of(member),)
                for fragment, lo, hi in product(pv, member):
                    append((fragment + value, lo, hi))
            return results

        return members, attrs + (node.attr,)


def _same(values: Values) -> Values:
    return values


def _product(reports: Sequence[Report]) -> Report:
    """Cartesian combination of child REPORTs (Algorithm 3, line 7).

    Endpoints intersect inline in :meth:`Interval.intersect`'s argument
    order: the running ``lo``/``hi`` survive a tie, so equal endpoints of
    different types (``1``/``1.0``) keep the same representative.
    """

    def product(pv: Values, key: Values) -> List[Fragment]:
        combined: List[Fragment] = [((), _NEG_INF, _POS_INF)]
        for report in reports:
            child_fragments = report(pv, key)
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
                    append((fragment + cfragment, jlo, jhi))
            combined = new
            if not combined:
                return []
        return combined

    return product
