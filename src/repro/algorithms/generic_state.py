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
  tree. Each bag is one :class:`BagPlan`, built once in ``__init__``;
  HYBRID (Algorithm 5) materializes its bags, and HYBRID-INTERVAL
  (Algorithm 6) its core join, through the same plan over the whole
  input, where interval hulls of the partial projections also prune.

Both paths append rows with values as stored and endpoints as
intersected. A kernel subclass sets ``_decode`` (one table per output
attribute) and ``_half``, and both paths then append final rows —
values decoded, endpoints widened by ``_half`` — building each row and
its one interval once.

The test-suite checks both paths against the naive oracle on random
instances, so neither refinement can silently change semantics.
"""

from __future__ import annotations

from operator import getitem as _getitem
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..core.hypergraph import Hypergraph, join_tree_children
from ..core.interval import Interval, Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..nontemporal.generic_join import choose_attribute_order, generic_join_with_order
from ..nontemporal.ghd import fhtw_ghd, trivial_ghd
from ..nontemporal.yannakakis import yannakakis
from ..obs import NULL_TRACER, Tracer
from .hierarchical import duplicate_tuple, tuple_getter

Values = Tuple[object, ...]
Key = Callable[[Values], object]
Rows = Iterable[Tuple[Values, Interval]]

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


class BagPlan:
    """One GHD bag over a query's relations, planned once.

    The one bag materializer: Algorithm 4 (lines 2-8) runs it per
    expiry over the restricted active rows, Algorithm 5 (lines 3-9) once
    over the whole input (:func:`repro.algorithms.hybrid.materialize_bag`)
    and Algorithm 6 (line 2) once over the core attributes ``J``.

    ``edges`` gives each relation's attributes in query-edge order and
    ``layouts`` (default: ``edges``) the order its rows are stored in, so
    rows are read by attribute name. Every relation meeting the bag
    becomes a derived edge over the attributes it shares with the bag,
    in edge order; ``projections`` keeps, per derived edge, the stored
    positions of those attributes (``None`` when they are the stored
    row itself) and whether they are all of the relation's (a *full*
    edge, whose intervals the bag carries). The
    GenericJoin attribute order (the bag's row layout) and each derived
    edge's key getter on a bag row depend on the derived hypergraph
    alone, so they are fixed here too.

    After each :meth:`materialize`, ``joined`` is the number of
    GenericJoin rows and ``dropped`` the number of those the partial
    hulls dropped.
    """

    __slots__ = (
        "name", "hypergraph", "projections", "order", "carried", "partial",
        "joined", "dropped",
    )

    def __init__(
        self,
        name: str,
        bag_attrs: Iterable[str],
        edges: Mapping[str, Tuple[str, ...]],
        layouts: Optional[Mapping[str, Tuple[str, ...]]] = None,
    ) -> None:
        lam = set(bag_attrs)
        derived: Dict[str, Tuple[str, ...]] = {}
        self.projections: Dict[str, Tuple[Optional[Tuple[int, ...]], bool]] = {}
        for relation, attrs in edges.items():
            shared = tuple(a for a in attrs if a in lam)
            if not shared:
                continue
            stored = attrs if layouts is None else layouts[relation]
            derived[relation] = shared
            pos = tuple(stored.index(a) for a in shared)
            self.projections[relation] = (
                None if pos == tuple(range(len(stored))) else pos,
                len(shared) == len(attrs),
            )
        self.name = name
        self.hypergraph = Hypergraph(derived)
        self.order = choose_attribute_order(self.hypergraph)
        slot = {a: i for i, a in enumerate(self.order)}
        keys = {
            relation: tuple_getter([slot[a] for a in attrs])
            for relation, attrs in derived.items()
        }
        self.carried: List[Tuple[str, Key]] = [
            (relation, keys[relation])
            for relation, (_, full) in self.projections.items()
            if full
        ]
        self.partial: List[Tuple[str, Key]] = [
            (relation, keys[relation])
            for relation, (_, full) in self.projections.items()
            if not full
        ]
        self.joined = self.dropped = 0

    def materialize(self, rows: Mapping[str, Rows], _hulls: bool = True) -> TemporalRelation:
        """The bag over ``rows`` (per relation, ``(values, interval)`` pairs).

        A full edge keeps its rows' intervals, a partial projection joins
        as ``(-inf, +inf)`` (Algorithm 5 lines 6-7); each GenericJoin row
        carries the intersection of its full edges' intervals, and a row
        whose intersection is empty is dropped (line 9).

        Beyond the paper, each partial projection key also gets the hull
        ``[min lo, max hi]`` of its rows' intervals, and a row is dropped
        when its carried interval and its partial keys' hulls share no
        point. Exact: a result's interval lies inside each of its rows,
        and each row's inside its key's hull. The carried interval is not
        narrowed by the hulls, so the surviving rows are unchanged.
        ``_hulls=False`` skips the hulls: the sweep state's per-expiry
        rows all hold the expiry instant, where no hull can prune.
        """
        sub_db: Dict[str, TemporalRelation] = {}
        projected: Dict[str, Dict[Values, Interval]] = {}
        hulls: Dict[str, Dict[Values, List[Number]]] = {}
        for relation, (pos, full) in self.projections.items():
            if pos is None:
                proj = dict(rows[relation])
            elif full:
                key = tuple_getter(pos)
                proj = {key(v): ivl for v, ivl in rows[relation]}
            else:
                key = tuple_getter(pos)
                if _hulls:
                    hull: Dict[Values, List[Number]] = {}
                    for v, ivl in rows[relation]:
                        k = key(v)
                        h = hull.get(k)
                        if h is None:
                            hull[k] = [ivl.lo, ivl.hi]
                        else:
                            if ivl.lo < h[0]:
                                h[0] = ivl.lo
                            if ivl.hi > h[1]:
                                h[1] = ivl.hi
                    hulls[relation] = hull
                    proj = dict.fromkeys(hull, _ALWAYS)
                else:
                    proj = dict.fromkeys((key(v) for v, _ in rows[relation]), _ALWAYS)
            sub = TemporalRelation(
                relation, self.hypergraph.edge(relation), check_distinct=False
            )
            sub._rows = list(proj.items())
            sub_db[relation] = sub
            projected[relation] = proj
        tuples, order = generic_join_with_order(self.hypergraph, sub_db, self.order)
        lookups = [(key, projected[relation]) for relation, key in self.carried]
        checks = [(key, hulls[relation]) for relation, key in self.partial if _hulls]
        out = []
        dropped = 0
        for t in tuples:
            # Endpoints in Interval.intersect's tie order; one interval
            # per surviving bag row.
            lo, hi = _NEG_INF, _POS_INF
            for key, proj in lookups:
                ivl = proj[key(t)]
                if ivl.lo > lo:
                    lo = ivl.lo
                if ivl.hi < hi:
                    hi = ivl.hi
                if lo > hi:
                    break
            else:
                clo, chi = lo, hi
                for key, hull in checks:
                    hlo, hhi = hull[key(t)]
                    if hlo > clo:
                        clo = hlo
                    if hhi < chi:
                        chi = hhi
                    if clo > chi:
                        dropped += 1
                        break
                else:
                    out.append((t, _fast(lo, hi)))
        self.joined = len(tuples)
        self.dropped = dropped
        bag = TemporalRelation(self.name, order, check_distinct=False)
        bag._rows = out
        return bag


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

    def __init__(self, query: JoinQuery, stats: Tracer = NULL_TRACER) -> None:
        self.query = query
        hg = query.hypergraph
        if hg.is_acyclic():
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
        # acyclic path, one BagPlan per bag on the cyclic one.
        if self.ghd.is_trivial():
            self._tree_plans: Optional[Dict[str, _TreePlan]] = self._build_tree_plans()
        else:
            self._tree_plans = None
            self._bag_plans = [
                BagPlan(bag, lam, self._edge_attrs)
                for bag, lam in self.ghd.bags.items()
            ]
            self._bag_hg = self.ghd.bag_hypergraph()
        # Emission mode: decode each output value through these tables
        # (one per attribute of ``query.attrs``) and widen endpoints by
        # ``_half`` (kernel routes that emit final rows).
        self._decode: Optional[List[List[object]]] = None
        self._half: Number = 0
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
        rows = {name: active.items() for name, active in restricted.items()}
        bag_db: Dict[str, TemporalRelation] = {}
        bag_rows = self._bag_rows
        for plan in self._bag_plans:
            rel = plan.materialize(rows, _hulls=False)
            size = len(rel)
            bag_rows[0] += 1
            bag_rows[1] += size
            if size > bag_rows[2]:
                bag_rows[2] = size
            if size == 0:
                return
            bag_db[plan.name] = rel
        results = yannakakis(
            self._bag_hg, bag_db, attr_order=self.query.attrs,
            intersect_intervals=True,
        )
        self._passes += 1
        if self._decode is None:
            out.extend(results.rows)
        else:
            self._emit_final(
                ((values, ivl.lo, ivl.hi) for values, ivl in results.rows), out
            )

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
        if self._decode is None:
            out.extend([
                (row_of(vals), _fast(max(lo_of(ends)), min(hi_of(ends))))
                for vals, ends in partials
            ])
        else:
            self._emit_final(
                (
                    (row_of(vals), max(lo_of(ends)), min(hi_of(ends)))
                    for vals, ends in partials
                ),
                out,
            )
        self._passes += 1
        bag_rows = self._bag_rows
        bag_rows[0] += len(sizes)
        bag_rows[1] += sum(sizes)
        bag_rows[2] = max(bag_rows[2], *sizes)

    def _emit_final(
        self, rows: Iterable[Tuple[Values, object, object]], out: JoinResultSet
    ) -> None:
        """Append ``(values, lo, hi)`` rows decoded, widened by ``_half``.

        Each row's one interval is built here; the arithmetic is
        :meth:`JoinResultSet.expand_intervals`': infinite endpoints are
        fixed points, and widening keeps ``lo <= hi``.
        """
        tables = self._decode
        half = self._half
        final = []
        append = final.append
        for values, lo, hi in rows:
            if half:
                if lo > _NEG_INF:
                    lo = lo - half
                if hi < _POS_INF:
                    hi = hi + half
            append((tuple(map(_getitem, tables, values)), _fast(lo, hi)))
        out.extend(final)

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
