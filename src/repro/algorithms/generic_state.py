"""The §3.3 sweep state for general temporal joins (Algorithm 4).

The dynamic structure is deliberately simple — hashed active tuples per
relation, O(1) updates — and the heavy lifting happens at enumeration: at
each right endpoint the state materializes the bags of a GHD of the query
over the active tuples (GenericJoin) and runs Yannakakis over the bag
tree, restricted to the expiring tuple. Per Theorem 9 this costs
``O(N^fhtw)`` per endpoint, ``O(N^(fhtw+1) + K)`` overall.

Practical refinement (pure pruning, same worst case): before
materializing, the active relations are restricted by a BFS semijoin
cascade seeded at the expiring tuple — every removed row provably joins
with no result involving that tuple, so the output is unchanged while the
per-endpoint cost tracks the *relevant* active subset rather than all of
it. The test-suite checks the state against the naive oracle on random
instances, so the refinement cannot silently change semantics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.hypergraph import Hypergraph
from ..core.interval import Interval
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..nontemporal.generic_join import generic_join_with_order
from ..nontemporal.ghd import GHD, fhtw_ghd, trivial_ghd
from ..nontemporal.yannakakis import yannakakis
from ..obs import NULL_TRACER, Tracer
from .hierarchical import duplicate_tuple

Values = Tuple[object, ...]

_NEG_INF = float("-inf")
_POS_INF = float("inf")
_fast = Interval._fast
_ALWAYS = Interval.always()


class GenericGHDState:
    """Sweep state implementing Theorem 9 / Corollary 10.

    :meth:`record` reports ``ghd.enumerations`` (expirations that
    survived the semijoin restriction), ``ghd.restrict_pruned``
    (expirations proven resultless before any materialization),
    ``ghd.bag_rows`` (per-endpoint bag materialization sizes, as an
    observe distribution) and ``ghd.yannakakis_passes`` to the ``stats``
    tracer; the state collects them in plain fields as it runs.
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
        # Static per-bag plans.
        self._bag_plans = self._build_bag_plans()
        self._bag_hg = self.ghd.bag_hypergraph()
        self._stats = stats
        self._pruned = 0
        self._bag_rows = [0, 0, 0]  # count, total, max of the bag sizes
        self._passes = 0

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------
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
