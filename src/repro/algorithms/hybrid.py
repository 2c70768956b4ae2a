"""HYBRID (Algorithm 5): GHD bag materialization + one TIMEFIRST pass.

The join-first half materializes each GHD bag with GenericJoin over the
*whole* input; valid intervals are carried for relations fully contained
in the bag (Algorithm 5 line 6) and widened to ``(-inf, +inf)`` for
partial projections (line 7); bag tuples whose carried intervals already
fail to intersect are dropped (line 9). Beyond the paper, a bag tuple is
also dropped when its carried interval and the interval hulls of its
partial projections' keys (``[min lo, max hi]`` of the rows each key
stands for) share no point: no result can contain it. The carried
interval itself is still line 7's. The time-first half then runs the
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
from ..core.interval import Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..nontemporal.ghd import GHD, fhtw_ghd, hhtw_ghd
from ..obs import NULL_TRACER, Tracer
from .generic_state import BagPlan
from .timefirst import sweep, sweep_state


def materialize_bag(
    query_hg: Hypergraph,
    database: Mapping[str, TemporalRelation],
    bag_attrs: Tuple[str, ...],
    bag_name: str = "bag",
) -> TemporalRelation:
    """Materialize one GHD bag over ``database`` (Algorithm 5 lines 3-9).

    Returns a temporal relation over a permutation of ``bag_attrs`` whose
    rows are the GenericJoin results of the derived edges, carrying the
    intersection of the intervals of all fully contained relations
    (partial projections join as ``(-inf, +inf)``, line 7). A row is
    dropped when that intersection is empty (line 9) or shares no point
    with the interval hulls of its partial projections' keys, so every
    dropped row meets no result. Relations are read by attribute name,
    whatever order they store their attributes in. The GHD sweep state
    materializes its bags through the same
    :class:`~repro.algorithms.generic_state.BagPlan`.
    """
    return _bag_plan(query_hg, database, bag_attrs, bag_name).materialize(database)


def _bag_plan(
    query_hg: Hypergraph,
    database: Mapping[str, TemporalRelation],
    bag_attrs: Tuple[str, ...],
    bag_name: str,
) -> BagPlan:
    edges = dict(query_hg.items())
    layouts = {name: database[name].attrs for name in edges}
    return BagPlan(bag_name, bag_attrs, edges, layouts)


def hybrid_join(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    ghd: Optional[GHD] = None,
    mode: str = "auto",
    track_intermediates: Optional[List[int]] = None,
    stats: Optional[Tracer] = None,
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
        ``hybrid.bag_rows`` (per-bag materialized sizes),
        ``hybrid.hull_dropped`` (bag rows the partial hulls dropped), the
        ``phase.materialize`` timer, plus the sweep counters of the
        time-first half over the derived bag query.
    """
    stats = NULL_TRACER if stats is None else stats
    query.validate(database)
    hg = query.hypergraph
    if ghd is None:
        ghd = select_hybrid_ghd(hg, mode)
    db = shrink_database(database, tau)
    bag_db: Dict[str, TemporalRelation] = {}
    with stats.timer("phase.materialize"):
        for bag, lam in ghd.bags.items():
            plan = _bag_plan(hg, db, lam, bag)
            rel = plan.materialize(db)
            if plan.dropped:
                stats.incr("hybrid.hull_dropped", plan.dropped)
            stats.incr("hybrid.bags")
            stats.observe("hybrid.bag_rows", len(rel))
            if track_intermediates is not None:
                track_intermediates.append(len(rel))
            bag_db[bag] = rel
    bag_edges = {bag: bag_db[bag].attrs for bag in ghd.bags}
    bag_query = JoinQuery(bag_edges, attr_order=query.attrs)
    state = sweep_state(bag_query, stats)
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
