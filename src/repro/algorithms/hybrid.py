"""HYBRID (Algorithm 5): GHD bag materialization + one TIMEFIRST pass.

The join-first half materializes each GHD bag with GenericJoin over the
*whole* input; valid intervals are carried for relations fully contained
in the bag (Algorithm 5 line 6) and widened to ``(-inf, +inf)`` for
partial projections (line 7); bag tuples whose carried intervals already
fail to intersect are dropped (line 9). The time-first half then runs the
sweep once over the derived acyclic query of bags — with the §3.2
hierarchical structure when the bag query is hierarchical (the
hierarchical-GHD observation behind Theorem 12), or the §3.3 generic
state otherwise.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..core.durability import shrink_database
from ..core.errors import PlanError
from ..core.hypergraph import Hypergraph
from ..core.interval import Interval, Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..nontemporal.generic_join import generic_join_with_order
from ..nontemporal.ghd import GHD, fhtw_ghd, hhtw_ghd
from ..obs import NULL_TRACER, ExecutionStats
from .timefirst import sweep

Values = Tuple[object, ...]

_NEG_INF = float("-inf")
_POS_INF = float("inf")
_fast = Interval._fast


def materialize_bag(
    query_hg: Hypergraph,
    database: Mapping[str, TemporalRelation],
    bag_attrs: Tuple[str, ...],
    bag_name: str = "bag",
) -> TemporalRelation:
    """Materialize one GHD bag over ``database`` (Algorithm 5 lines 3-9).

    Returns a temporal relation over a permutation of ``bag_attrs`` whose
    rows are the GenericJoin results of the derived edges, carrying the
    intersection of the intervals of all fully contained relations.
    """
    lam_set = set(bag_attrs)
    always = Interval.always()
    derived: Dict[str, Tuple[str, ...]] = {}
    sub_db: Dict[str, TemporalRelation] = {}
    full_edges: List[str] = []
    for name, eattrs in query_hg.items():
        restricted = tuple(a for a in eattrs if a in lam_set)
        if not restricted:
            continue
        derived[name] = restricted
        rel = database[name]
        pos = rel.positions(restricted)
        if len(restricted) == len(eattrs):
            rows = {tuple(v[p] for p in pos): ivl for v, ivl in rel}
            full_edges.append(name)
        else:
            rows = {}
            for v, _ in rel:
                rows[tuple(v[p] for p in pos)] = always
        sub = TemporalRelation(name, restricted, check_distinct=False)
        sub._rows = list(rows.items())
        sub_db[name] = sub
    sub_hg = Hypergraph(derived)
    tuples, order = generic_join_with_order(sub_hg, sub_db)
    order_pos = {a: i for i, a in enumerate(order)}
    lookups = []
    for name in full_edges:
        eattrs = derived[name]
        index = {v: ivl for v, ivl in sub_db[name]}
        lookups.append((tuple(order_pos[a] for a in eattrs), index))
    rows_out = []
    for t in tuples:
        # Intersect on endpoints in Interval.intersect's tie order;
        # build one interval per surviving row.
        lo, hi = _NEG_INF, _POS_INF
        for pos, index in lookups:
            ivl = index[tuple(t[p] for p in pos)]
            if ivl.lo > lo:
                lo = ivl.lo
            if ivl.hi < hi:
                hi = ivl.hi
            if lo > hi:
                break
        else:
            rows_out.append((t, _fast(lo, hi)))
    out = TemporalRelation(bag_name, order, check_distinct=False)
    out._rows = rows_out
    return out


def hybrid_join(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    ghd: Optional[GHD] = None,
    mode: str = "auto",
    track_intermediates: Optional[List[int]] = None,
    stats: Optional[ExecutionStats] = None,
) -> JoinResultSet:
    """Evaluate a τ-durable temporal join with HYBRID (Theorem 12).

    Parameters
    ----------
    ghd:
        Explicit decomposition; overrides ``mode``.
    mode:
        ``"auto"`` picks the decomposition minimizing the Theorem 12
        exponent ``min(fhtw + 1, hhtw)``; ``"fhtw"`` forces the fhtw GHD;
        ``"hierarchical"`` forces the hhtw (hierarchical) GHD.
    track_intermediates:
        Receives the materialized size of every bag, for the memory
        benches.
    stats:
        Opt-in telemetry (see :mod:`repro.obs`): ``hybrid.bags``,
        ``hybrid.bag_rows`` (per-bag materialized sizes), the
        ``phase.materialize`` timer, plus the sweep counters of the
        time-first half over the derived bag query.
    """
    query.validate(database)
    hg = query.hypergraph
    if ghd is None:
        ghd = select_hybrid_ghd(hg, mode)
    db = shrink_database(database, tau)
    tracer = NULL_TRACER if stats is None else stats
    bag_db: Dict[str, TemporalRelation] = {}
    with tracer.timer("phase.materialize"):
        for bag, lam in ghd.bags.items():
            rel = materialize_bag(hg, db, lam, bag_name=bag)
            tracer.incr("hybrid.bags")
            tracer.observe("hybrid.bag_rows", len(rel))
            if track_intermediates is not None:
                track_intermediates.append(len(rel))
            bag_db[bag] = rel
    bag_edges = {bag: bag_db[bag].attrs for bag in ghd.bags}
    bag_query = JoinQuery(bag_edges, attr_order=query.attrs)
    state = _bag_sweep_state(bag_query, bag_db, stats=stats)
    result = sweep(bag_query, bag_db, state, stats=stats)
    return result.expand_intervals(tau / 2 if tau else 0)


def select_hybrid_ghd(hg: Hypergraph, mode: str = "auto") -> GHD:
    """Pick the Theorem 12 decomposition for ``hg``."""
    if mode == "fhtw":
        return fhtw_ghd(hg)[1]
    if mode == "hierarchical":
        return hhtw_ghd(hg)[1]
    if mode != "auto":
        raise PlanError(f"unknown hybrid mode {mode!r}")
    f_width, f_ghd = fhtw_ghd(hg)
    h_width, h_ghd = hhtw_ghd(hg)
    return h_ghd if h_width <= f_width + 1 else f_ghd


def _bag_sweep_state(
    bag_query: JoinQuery,
    bag_db: Dict[str, TemporalRelation],
    stats: Optional[ExecutionStats] = None,
):
    from .generic_state import GenericGHDState
    from .hierarchical import HierarchicalState

    if bag_query.is_hierarchical:
        return HierarchicalState(bag_query, stats=stats)
    return GenericGHDState(bag_query, bag_db, stats=stats)
