"""The §3.3 sweep state for general temporal joins (Algorithm 4).

The dynamic structure is deliberately simple — hashed active tuples per
relation with per-attribute value buckets, O(1) updates — and the work
happens at enumeration. At each right endpoint every active tuple
contains the current instant, so the results of the expiring tuple are
the non-temporal join of the active set with that tuple fixed, and no
interval test can fail. Per Theorem 9 this costs ``O(N^fhtw)`` per
endpoint, ``O(N^(fhtw+1) + K)`` overall.

Both paths first restrict the active relations by a BFS semijoin
cascade seeded at the expiring tuple (pure pruning, same worst case):
every removed row provably joins with no result involving that tuple,
so the per-endpoint cost tracks the *relevant* active subset.

* **Acyclic queries** (the trivial GHD, fhtw = 1) run a seeded join over
  the GYO join tree, oriented once per relation in ``__init__`` so the
  expiring relation is the root. One bottom-up semijoin pass over the
  restricted rows groups each relation by the attributes it shares with
  its parent and keeps only rows whose every child key has a partner, so
  each partial result extends to at least one result (O(N) per
  endpoint). The walk down the tree then probes those groups and builds
  one ``Interval._fast`` per row; no bag relation, trie or checked
  interval is built per expiry. A disconnected query's components hang
  off one another in the GYO tree by empty keys, so their join is a
  product. Rows are bound as ``naive`` binds them: each value is the
  literal of the first relation in ``query.edge_names`` that holds the
  attribute, and endpoints are folded in the preorder of the Yannakakis
  pass over the trivial GHD (running endpoint first, so a tie keeps the
  earlier one).
* **Cyclic queries** materialize the bags of an fhtw-optimal GHD over
  the restricted rows (GenericJoin) and run Yannakakis over the bag
  tree.

The test-suite checks both paths against the naive oracle on random
instances, so neither refinement can silently change semantics.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.hypergraph import Hypergraph, join_tree_children
from ..core.interval import Interval
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..nontemporal.generic_join import generic_join_with_order
from ..nontemporal.ghd import GHD, fhtw_ghd, trivial_ghd
from ..nontemporal.yannakakis import yannakakis
from ..obs import NULL_TRACER, Tracer
from .hierarchical import duplicate_tuple, tuple_getter

Values = Tuple[object, ...]
Key = Callable[[Values], object]

_NEG_INF = float("-inf")
_POS_INF = float("inf")
_fast = Interval._fast
_ALWAYS = Interval.always()
#: The running ``(lo, hi)`` every endpoint fold starts from, as
#: ``Interval.always().intersect`` started the Yannakakis fold.
_UNBOUNDED = (_NEG_INF, _POS_INF)


def _no_key(values: Values) -> Values:
    return ()


def _key(positions: List[int]) -> Key:
    """Key of the given positions: a scalar for one, a tuple for several."""
    return itemgetter(*positions) if positions else _no_key


class _TreePlan:
    """The join tree oriented from one relation (the acyclic path).

    Slot 0 is the root; the other relations are numbered as a search from
    the root discovers them, so every parent precedes its children. Per
    slot: ``names[s]``; ``up[s]``, the key of the slot's own rows towards
    its parent (``()`` for the root); ``checks[s]``, per child, the key of
    the slot's own rows towards that child and the child's slot; and for
    ``s > 0`` ``down[s]``, the key towards the parent read from a partial
    result — the concatenation of the values of slots ``0..s-1``.
    ``row_of`` picks the output values from a complete partial, and
    ``lo_of``/``hi_of`` the endpoints in fold order from ``_UNBOUNDED``
    followed by one ``(lo, hi)`` per slot.
    """

    __slots__ = ("names", "up", "checks", "down", "row_of", "lo_of", "hi_of")

    def __init__(
        self,
        root: str,
        edge_attrs: Dict[str, Tuple[str, ...]],
        adjacency: Dict[str, List[str]],
        sources: List[Tuple[str, int]],
        fold: List[str],
    ) -> None:
        names = [root]
        parent_name: Dict[str, Optional[str]] = {root: None}
        stack = [root]
        while stack:
            name = stack.pop()
            for other in reversed(adjacency[name]):
                if other not in parent_name:
                    parent_name[other] = name
                    names.append(other)
                    stack.append(other)
        # The walk needs only parents before children; the endpoint fold
        # and the value binding are fixed by ``fold`` and ``sources``.
        slot = {name: i for i, name in enumerate(names)}
        offset = [0]
        for name in names:
            offset.append(offset[-1] + len(edge_attrs[name]))
        self.names = names
        self.up: List[Key] = [_no_key] * len(names)
        self.checks: List[List[Tuple[Key, int]]] = [[] for _ in names]
        self.down: List[Key] = [_no_key] * len(names)
        for child in names[1:]:
            par = parent_name[child]
            mine = edge_attrs[child]
            theirs = edge_attrs[par]
            shared = [a for a in mine if a in theirs]
            s, ps = slot[child], slot[par]
            self.up[s] = _key([mine.index(a) for a in shared])
            self.checks[ps].append((_key([theirs.index(a) for a in shared]), s))
            self.down[s] = _key([offset[ps] + theirs.index(a) for a in shared])
        self.row_of = tuple_getter([offset[slot[n]] + p for n, p in sources])
        self.lo_of = itemgetter(0, *[2 + 2 * slot[n] for n in fold])
        self.hi_of = itemgetter(1, *[3 + 2 * slot[n] for n in fold])


class GenericGHDState:
    """Sweep state implementing Theorem 9 / Corollary 10.

    :meth:`record` reports ``ghd.enumerations`` (expirations that
    survived the restriction, and on the acyclic path the reducer),
    ``ghd.restrict_pruned`` (expirations proven resultless before any
    enumeration), ``ghd.bag_rows`` (per enumeration, one observation per
    bag — per relation on the acyclic path, its rows left after the
    reducer) and ``ghd.yannakakis_passes`` (join passes run: one seeded
    join-tree walk per enumeration on the acyclic path, one Yannakakis
    pass over the bags on the cyclic path) to the ``stats`` tracer; the
    state collects them in plain fields as it runs.
    """

    def __init__(
        self,
        query: JoinQuery,
        database: Optional[Dict[str, TemporalRelation]] = None,
        ghd: Optional[GHD] = None,
        stats: Tracer = NULL_TRACER,
    ) -> None:
        self.query = query
        hg = query.hypergraph
        if ghd is not None:
            self.ghd = ghd
        elif hg.is_acyclic():
            self.ghd = trivial_ghd(hg)
        else:
            _, self.ghd = fhtw_ghd(hg)
        # Active tuples: relation -> {values -> interval}.
        self._active: Dict[str, Dict[Values, Interval]] = {
            name: {} for name in hg.edge_names
        }
        # Per relation, per attribute: value -> set of active tuples.
        self._attr_index: Dict[str, Dict[str, Dict[object, Set[Values]]]] = {
            name: {a: {} for a in hg.edge(name)} for name in hg.edge_names
        }
        self._edge_attrs: Dict[str, Tuple[str, ...]] = {
            name: hg.edge(name) for name in hg.edge_names
        }
        # Adjacency over relations (shared attributes) for the semijoin BFS.
        self._neighbors: Dict[str, List[Tuple[str, List[str]]]] = {}
        names = hg.edge_names
        for name in names:
            nbrs: List[Tuple[str, List[str]]] = []
            mine = set(hg.edge(name))
            for other in names:
                if other == name:
                    continue
                shared = [a for a in hg.edge(other) if a in mine]
                if shared:
                    nbrs.append((other, shared))
            self._neighbors[name] = nbrs
        # Static plans: one join-tree orientation per relation on the
        # acyclic path, per-bag projections on the cyclic one.
        if self.ghd.is_trivial():
            self._tree_plans: Optional[Dict[str, _TreePlan]] = self._build_tree_plans()
        else:
            self._tree_plans = None
            self._bag_plans = self._build_bag_plans()
            self._bag_hg = self.ghd.bag_hypergraph()
        self._stats = stats
        self._pruned = 0
        self._bag_rows = [0, 0, 0]  # count, total, max of the bag sizes
        self._passes = 0

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------
    def _build_tree_plans(self) -> Dict[str, _TreePlan]:
        """One :class:`_TreePlan` per relation, from the trivial GHD's tree.

        The GHD's join tree is the GYO tree of its bag hypergraph (one bag
        per edge). Its preorder — the order the Yannakakis pass folded bag
        intervals in, each bag folding the edges it covers in edge order —
        fixes the endpoint fold, whichever relation expires.
        """
        ghd = self.ghd
        edge_of = {bag: group[0] for bag, group in ghd.groups.items()}
        children = join_tree_children(ghd.parent)
        roots = children.get("", [])
        # GYO hangs an edge that shares nothing with the others on some
        # other edge, so the tree spans a disconnected query's components
        # and the walk joins them on empty keys: a product.
        adjacency: Dict[str, List[str]] = {name: [] for name in self._edge_attrs}
        for bag, par in ghd.parent.items():
            if par is not None:
                adjacency[edge_of[par]].append(edge_of[bag])
                adjacency[edge_of[bag]].append(edge_of[par])
        fold: List[str] = []
        stack = list(reversed(roots))
        while stack:
            bag = stack.pop()
            lam = set(ghd.bags[bag])
            for name, attrs in self._edge_attrs.items():
                if name not in fold and lam.issuperset(attrs):
                    fold.append(name)
            stack.extend(reversed(children.get(bag, [])))
        sources: List[Tuple[str, int]] = []
        for attr in self.query.attrs:
            name = next(n for n, attrs in self._edge_attrs.items() if attr in attrs)
            sources.append((name, self._edge_attrs[name].index(attr)))
        return {
            name: _TreePlan(name, self._edge_attrs, adjacency, sources, fold)
            for name in self._edge_attrs
        }

    def _build_bag_plans(self):
        plans = []
        for bag, lam in self.ghd.bags.items():
            lam_set = set(lam)
            derived: Dict[str, Tuple[str, ...]] = {}
            projections: Dict[str, Tuple[Tuple[int, ...], bool]] = {}
            for name, eattrs in self._edge_attrs.items():
                restricted = tuple(a for a in eattrs if a in lam_set)
                if not restricted:
                    continue
                derived[name] = restricted
                pos = tuple(eattrs.index(a) for a in restricted)
                projections[name] = (pos, len(restricted) == len(eattrs))
            plans.append((bag, lam, Hypergraph(derived), projections))
        return plans

    # ------------------------------------------------------------------
    # SweepState interface
    # ------------------------------------------------------------------
    def insert(self, relation: str, values: Values, interval: Interval) -> None:
        active = self._active[relation]
        if values in active:
            # An overwrite would lose the first tuple's interval and fail
            # its expiry later.
            raise duplicate_tuple(relation, values)
        active[values] = interval
        index = self._attr_index[relation]
        for attr, value in zip(self._edge_attrs[relation], values):
            index[attr].setdefault(value, set()).add(values)

    def delete(self, relation: str, values: Values, interval: Interval) -> None:
        del self._active[relation][values]
        index = self._attr_index[relation]
        for attr, value in zip(self._edge_attrs[relation], values):
            bucket = index[attr][value]
            bucket.discard(values)
            if not bucket:
                del index[attr][value]

    def enumerate_results(
        self,
        relation: str,
        values: Values,
        interval: Interval,
        out: JoinResultSet,
    ) -> None:
        restricted = self._restrict(relation, values)
        if restricted is None:
            self._pruned += 1
            return
        plans = self._tree_plans
        if plans is not None:
            self._walk(plans[relation], restricted, out)
            return
        bag_db: Dict[str, TemporalRelation] = {}
        bag_rows = self._bag_rows
        for bag, lam, sub_hg, projections in self._bag_plans:
            rel = self._materialize_bag(sub_hg, projections, restricted)
            size = len(rel)
            bag_rows[0] += 1
            bag_rows[1] += size
            if size > bag_rows[2]:
                bag_rows[2] = size
            if size == 0:
                return
            bag_db[bag] = rel
        results = yannakakis(
            self._bag_hg, bag_db, attr_order=self.query.attrs,
            intersect_intervals=True,
        )
        self._passes += 1
        out.extend(results.rows)

    # ------------------------------------------------------------------
    # Acyclic path: seeded join over the oriented join tree
    # ------------------------------------------------------------------
    def _walk(
        self,
        plan: _TreePlan,
        restricted: Dict[str, Dict[Values, Interval]],
        out: JoinResultSet,
    ) -> None:
        """Reduce bottom-up, then enumerate down from the expiring tuple."""
        names = plan.names
        up = plan.up
        checks = plan.checks
        groups: List[Dict[object, List[Tuple[Values, Tuple[object, object]]]]] = [
            {} for _ in names
        ]
        sizes = []
        for slot in range(len(names) - 1, -1, -1):
            key = up[slot]
            probes = [(own, groups[child]) for own, child in checks[slot]]
            grouped = groups[slot]
            kept = 0
            for v, ivl in restricted[names[slot]].items():
                for own, child_groups in probes:
                    if own(v) not in child_groups:
                        break
                else:
                    kept += 1
                    k = key(v)
                    bucket = grouped.get(k)
                    if bucket is None:
                        grouped[k] = [(v, (ivl.lo, ivl.hi))]
                    else:
                        bucket.append((v, (ivl.lo, ivl.hi)))
            if not kept:
                self._pruned += 1
                return
            sizes.append(kept)
        # Every grouped row now extends to a result, so every probe below
        # hits and the walk does O(1) work per partial result.
        partials = [(v, _UNBOUNDED + ends) for v, ends in groups[0][()]]
        down = plan.down
        for slot in range(1, len(names)):
            grouped = groups[slot]
            key = down[slot]
            partials = [
                (vals + v, ends + e)
                for vals, ends in partials
                for v, e in grouped[key(vals)]
            ]
        row_of, lo_of, hi_of = plan.row_of, plan.lo_of, plan.hi_of
        out.extend([
            (row_of(vals), _fast(max(lo_of(ends)), min(hi_of(ends))))
            for vals, ends in partials
        ])
        self._passes += 1
        bag_rows = self._bag_rows
        bag_rows[0] += len(sizes)
        bag_rows[1] += sum(sizes)
        bag_rows[2] = max(bag_rows[2], *sizes)

    def record(self, inserts: int, deletes: int, rows: int) -> None:
        """Report the ``ghd.*`` counters since the last call (see the class).

        ``deletes`` is the number of ENUMERATE calls; every one the
        restriction did not prune was an enumeration.
        """
        stats = self._stats
        if self._pruned:
            stats.incr("ghd.restrict_pruned", self._pruned)
        if deletes - self._pruned:
            stats.incr("ghd.enumerations", deletes - self._pruned)
        count, total, largest = self._bag_rows
        if count:
            stats.incr("ghd.bag_rows.count", count)
            stats.incr("ghd.bag_rows.total", total)
            stats.peak("ghd.bag_rows.max", largest)
        if self._passes:
            stats.incr("ghd.yannakakis_passes", self._passes)
        self._pruned = self._passes = 0
        self._bag_rows = [0, 0, 0]

    # ------------------------------------------------------------------
    # Restriction: semijoin cascade seeded at the expiring tuple
    # ------------------------------------------------------------------
    def _restrict(
        self, relation: str, values: Values
    ) -> Optional[Dict[str, Dict[Values, Interval]]]:
        """Active subsets consistent with the expiring tuple, or ``None``.

        The expiring relation is pinned to exactly the expiring tuple; a
        BFS over the relation adjacency graph semijoins each relation with
        the already-restricted neighbour it was discovered from. Returns
        ``None`` as soon as some relation restricts to empty (the tuple
        participates in no result).
        """
        restricted: Dict[str, Dict[Values, Interval]] = {
            relation: {values: self._active[relation][values]}
        }
        queue = [relation]
        seen = {relation}
        while queue:
            current = queue.pop(0)
            for other, shared in self._neighbors[current]:
                if other in seen:
                    continue
                seen.add(other)
                candidates = self._semijoin_active(other, current, shared, restricted)
                if not candidates:
                    return None
                restricted[other] = candidates
                queue.append(other)
        for name, active in self._active.items():
            if name not in restricted:
                if not active:
                    return None
                restricted[name] = active
        return restricted

    def _semijoin_active(
        self,
        target: str,
        source: str,
        shared: List[str],
        restricted: Dict[str, Dict[Values, Interval]],
    ) -> Dict[Values, Interval]:
        """Rows of ``target`` joining some restricted row of ``source``."""
        source_attrs = self._edge_attrs[source]
        source_pos = [source_attrs.index(a) for a in shared]
        keys = {
            tuple(v[p] for p in source_pos) for v in restricted[source]
        }
        target_attrs = self._edge_attrs[target]
        target_pos = [target_attrs.index(a) for a in shared]
        active = self._active[target]
        # Probe through the attribute index while the key set is small
        # relative to the active set — per-key index probes beat a full
        # scan until the union of probe buckets approaches the scan cost.
        if len(keys) * 4 <= max(4, len(active)):
            index = self._attr_index[target]
            first_attr = shared[0]
            bucket_index = index[first_attr]
            out: Dict[Values, Interval] = {}
            for key in keys:
                bucket = bucket_index.get(key[0])
                if not bucket:
                    continue
                if len(shared) == 1:
                    for v in bucket:
                        out[v] = active[v]
                else:
                    for v in bucket:
                        if tuple(v[p] for p in target_pos) == key:
                            out[v] = active[v]
            return out
        return {
            v: ivl
            for v, ivl in active.items()
            if tuple(v[p] for p in target_pos) in keys
        }

    # ------------------------------------------------------------------
    # Bag materialization (Algorithm 4 lines 2-8)
    # ------------------------------------------------------------------
    def _materialize_bag(
        self,
        sub_hg: Hypergraph,
        projections: Dict[str, Tuple[Tuple[int, ...], bool]],
        restricted: Dict[str, Dict[Values, Interval]],
    ) -> TemporalRelation:
        sub_db: Dict[str, TemporalRelation] = {}
        full_lookups: List[Tuple[str, Tuple[int, ...], Dict[Values, Interval]]] = []
        for name in sub_hg.edge_names:
            pos, is_full = projections[name]
            rows = restricted[name]
            if is_full:
                proj = {tuple(v[p] for p in pos): ivl for v, ivl in rows.items()}
            else:
                proj = {}
                for v in rows:
                    proj[tuple(v[p] for p in pos)] = _ALWAYS
            rel = TemporalRelation(name, sub_hg.edge(name), check_distinct=False)
            rel._rows = list(proj.items())
            sub_db[name] = rel
            if is_full:
                full_lookups.append((name, None, proj))
        tuples, order = generic_join_with_order(sub_hg, sub_db)
        # Attach intervals: intersect the valid intervals of every fully
        # covered edge's constituent tuple.
        order_pos = {a: i for i, a in enumerate(order)}
        lookups: List[Tuple[Tuple[int, ...], Dict[Values, Interval]]] = []
        for name, _, proj in full_lookups:
            eattrs = sub_hg.edge(name)
            lookups.append((tuple(order_pos[a] for a in eattrs), proj))
        out = TemporalRelation("bag", order, check_distinct=False)
        rows = []
        for t in tuples:
            # Endpoints in Interval.intersect's tie order; one interval
            # per surviving bag row.
            lo, hi = _NEG_INF, _POS_INF
            for pos, proj in lookups:
                ivl = proj[tuple(t[p] for p in pos)]
                if ivl.lo > lo:
                    lo = ivl.lo
                if ivl.hi < hi:
                    hi = ivl.hi
                if lo > hi:
                    break
            else:
                rows.append((t, _fast(lo, hi)))
        out._rows = rows
        return out
