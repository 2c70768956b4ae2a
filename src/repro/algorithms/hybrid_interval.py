"""HYBRID-INTERVAL / HybridGuarded (Algorithm 6) with the interval-join
shortcut of Section 4.2.

On a guarded GHD the bag materialization of Algorithm 5 collapses: all
bags share the core attributes ``J = ∩_u λ_u``; solving the core query
``Q_J`` once (GenericJoin over projections) yields the tuples ``L``, and
every ``a ∈ L`` induces a *residual* join over ``I = V − J`` among the
rows of the residual relations that match ``a`` on their ``J``
attributes. The paper solves the residual with TIMEFIRST in general, and
— when the residual is a Cartesian product of exactly two groups — with a
plane-sweep *interval join*, improving line-3 joins to ``O(N^1.5 + K)``.

This module implements all three residual strategies:

* two product groups → lazy-sweep interval join (gapless active sets,
  see :mod:`repro.algorithms.allen`; the paper used the forward scan);
* k ≥ 3 product groups → a dedicated multi-way sweep (the residual query
  is hierarchical, so this is the §3.2 machinery specialized to disjoint
  unary groups);
* anything else → a recursive TIMEFIRST call on the residual query.

**Hulls first.** The core join is the one bag materializer
(:class:`~repro.algorithms.generic_state.BagPlan`) over ``J``: the core
edges are its full edges and carry the core interval ``[clo, chi]``
(line 4), and the residual relations are its partial edges. Beyond the
paper, a core tuple dies inside the core join when ``[clo, chi]`` and
the interval hulls (``[min lo, max hi]``) of the residual rows matching
it on ``J`` share no point, since every result lies inside the core
interval and one such row per residual relation. The core interval
itself is not narrowed by the hulls.

**Filter, then clip.** Residual groups are built once per call as
``(values, lo, hi, interval)`` rows sorted by ``(lo, hi)``. Per core tuple
that survived the hulls, a row is kept iff it meets the core
(``lo <= chi`` and ``hi >= clo``) and goes to the strategy *unclipped*;
only emitted intervals are clipped to the core. Exact by Helly's theorem
in 1-D: closed intervals that intersect pairwise share a point, so rows
that each meet the core and meet each other meet inside it. The emitted
combinations are those of clipping every row first, at the same intervals.
The clip also undoes the τ/2 shrink, so each emitted row builds its final
interval once.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.durability import shrink_database
from ..core.errors import PlanError
from ..core.interval import Interval, Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..nontemporal.ghd import GuardedPartition, find_guarded_partition
from ..obs import NULL_TRACER, Tracer
from .allen import _BY_LO_HI, Pair, overlap_sweep
from .generic_state import BagPlan
from .hierarchical import tuple_getter

Values = Tuple[object, ...]
#: A residual row with its endpoints hoisted: ``(values, lo, hi, interval)``.
Row = Tuple[Values, Number, Number, Interval]
#: ``(name, i_attrs, probe, groups)``; a group is ``(rows, los)``.
Plan = Tuple[str, Tuple[str, ...], Callable, Dict[Values, Tuple[List[Row], List[Number]]]]
Emit = Callable[[Values, Number, Number, List[List[Row]]], None]
#: ``record(stats, calls)``: a strategy's counters after ``calls`` emits.
Record = Callable[[Tracer, int], None]

_NEG_INF = float("-inf")
_POS_INF = float("inf")
_NO_GROUP: Tuple[Sequence[Row], Sequence[Number]] = ((), ())
_BY_TIME_KIND = itemgetter(0, 1)
_fast = Interval._fast
_new = object.__new__
_put = object.__setattr__


def hybrid_interval_join(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    partition: Optional[GuardedPartition] = None,
    residual_strategy: str = "auto",
    stats: Optional[Tracer] = None,
) -> JoinResultSet:
    """Evaluate a τ-durable temporal join with HybridGuarded.

    ``residual_strategy`` selects how per-core-tuple residual joins are
    solved: ``"auto"`` (interval join for two product groups, product
    sweep for more, recursive TIMEFIRST otherwise), or ``"sweep"`` to
    force the recursive TIMEFIRST everywhere — the ablation knob that
    isolates the §4.2 interval-join improvement.

    ``stats`` opts into telemetry: ``hi.core_tuples`` (|L| from the core
    GenericJoin, before any interval check), ``hi.core_pruned`` (core
    tuples that died on interval, hull or group checks),
    ``hi.hull_pruned`` (those the residual hulls killed in the core
    join), per-residual-strategy counters
    (``hi.interval_joins`` / ``hi.product_sweeps`` / ``hi.recursions``),
    ``ij.scan`` (interval-join input scan lengths) and ``ij.pairs``
    (overlapping pairs reported), plus ``phase.core_join`` /
    ``phase.residuals`` timers and the final ``results`` count.

    Raises :class:`PlanError` when the query admits no guarded partition
    (e.g. cycle joins) — the planner falls back to HYBRID there.
    """
    stats = NULL_TRACER if stats is None else stats
    if residual_strategy not in ("auto", "sweep"):
        raise PlanError(f"unknown residual strategy {residual_strategy!r}")
    query.validate(database)
    hg = query.hypergraph
    if partition is None:
        partition = find_guarded_partition(hg)
    if partition is None:
        raise PlanError(f"{query!r} admits no guarded partition; use hybrid_join instead")
    db = shrink_database(database, tau)

    j_set = set(partition.J)
    # ------------------------------------------------------------------
    # Line 2: L <- GenericJoin(Q_J, {π_J R_e | e ∈ E_J}), as one bag over
    # J. Each core tuple carries its core edges' intersection (line 4); a
    # tuple whose intersection is empty or misses a residual relation's
    # hull for its J-part dies here, before any residual join.
    # ------------------------------------------------------------------
    edges = dict(hg.items())
    core_plan = BagPlan("core", partition.J, edges, {n: db[n].attrs for n in edges})
    with stats.timer("phase.core_join"):
        core = core_plan.materialize(db)
    stats.incr("hi.core_tuples", core_plan.joined)
    if core_plan.dropped:
        stats.incr("hi.hull_pruned", core_plan.dropped)
    j_order = core.attrs
    j_pos = {a: i for i, a in enumerate(j_order)}

    # Residual relations grouped by their J-part, sorted: lines 5-6, once.
    plans: List[Plan] = []
    for name in partition.residual_edges:
        eattrs = hg.edge(name)
        rel = db[name]
        j_part = [a for a in eattrs if a in j_set]
        i_part = tuple(a for a in eattrs if a not in j_set)
        key = tuple_getter(rel.positions(j_part))
        project = tuple_getter(rel.positions(i_part))
        raw: Dict[Values, List[Row]] = {}  # grouping keeps the (lo, hi) order
        for v, lo, hi, ivl in sorted(((v, i.lo, i.hi, i) for v, i in rel), key=_BY_LO_HI):
            raw.setdefault(key(v), []).append((project(v), lo, hi, ivl))
        groups = {k: (rows, [row[1] for row in rows]) for k, rows in raw.items()}
        plans.append((name, i_part, tuple_getter([j_pos[a] for a in j_part]), groups))

    out = JoinResultSet(query.attrs)
    if residual_strategy == "sweep" or not partition.residual_product:
        strategy = _residual_timefirst
    else:
        strategy = _interval_join if len(plans) == 2 else _product_sweep
    emit, record = strategy(query, j_order, plans, out, tau / 2 if tau else 0)

    # ------------------------------------------------------------------
    # Lines 3-8: per core tuple, solve the residual join.
    # ------------------------------------------------------------------
    pruned = core_plan.joined - len(core)
    with stats.timer("phase.residuals"):
        for a, ivl in core:
            clo, chi = ivl.lo, ivl.hi
            kept_groups: List[List[Row]] = []
            for _, _, probe, groups in plans:
                # Keep the rows that meet [clo, chi], unclipped (Helly).
                rows, los = groups.get(probe(a), _NO_GROUP)
                kept = [row for row in rows[: bisect_right(los, chi)] if row[2] >= clo]
                if not kept:
                    break
                kept_groups.append(kept)
            else:
                emit(a, clo, chi, kept_groups)
                continue
            pruned += 1

    if pruned:
        stats.incr("hi.core_pruned", pruned)
    record(stats, core_plan.joined - pruned)
    stats.incr("results", len(out))
    return out


def _layout(query: JoinQuery, concat: Sequence[str]) -> Callable[[Sequence], Values]:
    """Getter reordering a ``concat``-ordered tuple into ``query.attrs``."""
    return tuple_getter([list(concat).index(a) for a in query.attrs])


def _clipped(items: Sequence[tuple], clo: Number, chi: Number, half: Number) -> List[Interval]:
    """The emitted interval of every item: its last field ``∩ [clo, chi]``,
    widened back by ``half`` = τ/2.

    Nonempty for every emitted result (Helly). The widening is
    :meth:`Interval.expand`'s (infinite endpoints are fixed points), so
    each interval equals clipping and then ``expand_intervals(half)``;
    at ``half == 0`` an interval the core does not cut is reused as is.
    One loop per core tuple, one interval per row.
    """
    out: List[Interval] = []
    append = out.append
    for item in items:
        iv = item[-1]
        lo, hi = iv.lo, iv.hi
        if lo < clo or hi > chi:
            lo, hi = (lo if lo > clo else clo), (hi if hi < chi else chi)
        elif not half:
            append(iv)
            continue
        if half:
            if _NEG_INF < lo < _POS_INF:
                lo = lo - half
            if _NEG_INF < hi < _POS_INF:
                hi = hi + half
        # Interval._fast inlined: clipping and widening keep lo <= hi.
        iv = _new(Interval)
        _put(iv, "lo", lo)
        _put(iv, "hi", hi)
        append(iv)
    return out


# ----------------------------------------------------------------------
# Residual strategies: each builds its per-call state once and returns
# ``emit(core, clo, chi, kept_groups)``, which appends rows whose
# intervals are already widened back by ``half`` = τ/2, and
# ``record(stats, calls)``, which reports its counters once at the end.
# ----------------------------------------------------------------------
def _interval_join(
    query: JoinQuery, j_order: Sequence[str], plans: List[Plan], out: JoinResultSet,
    half: Number,
) -> Tuple[Emit, Record]:
    """Two disjoint residual groups: a single lazy-sweep interval join."""
    layout = _layout(query, (*j_order, *plans[0][1], *plans[1][1]))
    append = out.rows.append
    scans: List[int] = []
    found: List[int] = []

    def emit(core: Values, clo: Number, chi: Number, groups: List[List[Row]]) -> None:
        pairs: List[Pair] = []
        scans.append(overlap_sweep(groups[0], groups[1], pairs)[0])
        found.append(len(pairs))
        if not pairs:
            return
        for (lvalues, rvalues, _), iv in zip(pairs, _clipped(pairs, clo, chi, half)):
            append((layout(core + lvalues + rvalues), iv))

    def record(stats: Tracer, calls: int) -> None:
        if calls:
            stats.incr("hi.interval_joins", calls)
            stats.incr("ij.scan.count", calls)
            stats.incr("ij.scan.total", sum(scans))
            stats.peak("ij.scan.max", max(scans))
            stats.incr("ij.pairs.count", calls)
            stats.incr("ij.pairs.total", sum(found))
            stats.peak("ij.pairs.max", max(found))

    return emit, record


def _product_sweep(
    query: JoinQuery, j_order: Sequence[str], plans: List[Plan], out: JoinResultSet,
    half: Number,
) -> Tuple[Emit, Record]:
    """k ≥ 3 disjoint residual groups: sweep enumerating live combinations.

    Events over all group rows' endpoints; at each row's right endpoint,
    combinations of live rows from the *other* groups are enumerated with
    that row — the §3.2 algorithm specialized to a star-free product, kept
    output-sensitive by the per-group liveness check.
    """
    k = len(plans)
    others = [[o for o in range(k) if o != gi] for gi in range(k)]
    layouts = [
        _layout(query, [*j_order, *(a for o in [gi, *others[gi]] for a in plans[o][1])])
        for gi in range(k)
    ]
    append = out.rows.append

    def emit(core: Values, clo: Number, chi: Number, groups: List[List[Row]]) -> None:
        events = []
        for gi, rows in enumerate(groups):
            for values, lo, hi, _ in rows:
                events.append((lo, 0, gi, values, hi))
                events.append((hi, 1, gi, values, lo))
        events.sort(key=_BY_TIME_KIND)
        live: List[Dict[Values, Tuple[Number, Number]]] = [{} for _ in groups]
        for t, kind, gi, values, other in events:
            if kind == 0:
                live[gi][values] = (t, other)
                continue
            # Expiring row: enumerate combinations across the other groups.
            del live[gi][values]
            if not all(live[o] for o in others[gi]):
                continue
            partial = [(values, other, t)]
            for o in others[gi]:
                new = []
                for pvalues, plo, phi in partial:
                    for ovalues, (olo, ohi) in live[o].items():
                        lo = plo if plo > olo else olo
                        hi = phi if phi < ohi else ohi
                        if lo <= hi:
                            new.append((pvalues + ovalues, lo, hi))
                partial = new
                if not partial:
                    break
            for pvalues, lo, hi in partial:
                lo, hi = (lo if lo > clo else clo), (hi if hi < chi else chi)
                if half:
                    if _NEG_INF < lo < _POS_INF:
                        lo = lo - half
                    if _NEG_INF < hi < _POS_INF:
                        hi = hi + half
                append((layouts[gi](core + pvalues), _fast(lo, hi)))

    def record(stats: Tracer, calls: int) -> None:
        if calls:
            stats.incr("hi.product_sweeps", calls)

    return emit, record


def _residual_timefirst(
    query: JoinQuery, j_order: Sequence[str], plans: List[Plan], out: JoinResultSet,
    half: Number,
) -> Tuple[Emit, Record]:
    """General residual: recursive TIMEFIRST on Q_I (Algorithm 6, line 7).

    The residual query and its relation shells are built once per call;
    each core tuple only refills the shells' rows.
    """
    from .timefirst import timefirst_join

    residual_query = JoinQuery({name: attrs for name, attrs, _, _ in plans})
    shells = [TemporalRelation(n, a, check_distinct=False) for n, a, _, _ in plans]
    residual_db = {shell.name: shell for shell in shells}
    layout = _layout(query, (*j_order, *residual_query.attrs))
    append = out.rows.append

    def emit(core: Values, clo: Number, chi: Number, groups: List[List[Row]]) -> None:
        for shell, rows in zip(shells, groups):
            shell._rows = [(values, ivl) for values, _, _, ivl in rows]
        rows = timefirst_join(residual_query, residual_db).rows
        for (values, _), iv in zip(rows, _clipped(rows, clo, chi, half)):
            append((layout(core + values), iv))

    def record(stats: Tracer, calls: int) -> None:
        if calls:
            stats.incr("hi.recursions", calls)

    return emit, record
