"""BASELINE: pairwise binary temporal joins with join-order selection.

Section 6.1: "One baseline algorithm for general temporal join queries
sequentially picks a pair of relations to join and materializes their join
results as a new relation to be further joined (if applicable, we always
pick the best join order)."

The order search enumerates left-deep orders whose prefixes stay connected
(avoiding accidental Cartesian blow-ups when the query is connected) and
scores them with System-R style cardinality estimates; ties and the
final pick minimize the estimated total intermediate size. Callers can
also force an explicit order, which the ablation bench uses to measure
how much the order search buys.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Mapping, Optional, Sequence

from ..core.durability import shrink_database
from ..core.errors import InvariantError, QueryError
from ..core.interval import Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..obs import ExecutionStats
from .binary import binary_temporal_join
from .interval_join import DEFAULT_STRATEGY

_MAX_EXHAUSTIVE_EDGES = 7


def choose_join_order(
    query: JoinQuery, database: Mapping[str, TemporalRelation]
) -> List[str]:
    """Estimated-best left-deep join order (connected prefixes preferred)."""
    names = query.edge_names
    if len(names) <= 2:
        return list(names)
    if len(names) <= _MAX_EXHAUSTIVE_EDGES:
        candidates = _connected_orders(query, names)
        best_order: Optional[List[str]] = None
        best_cost = float("inf")
        for order in candidates:
            cost = _estimate_order_cost(query, database, order)
            if cost < best_cost:
                best_cost = cost
                best_order = order
        if best_order is None:
            raise InvariantError(
                "join-order search produced no candidate order for "
                f"{names}: _connected_orders must yield at least one "
                "permutation"
            )
        return best_order
    return _greedy_order(query, database, names)


def _connected_orders(
    query: JoinQuery, names: Sequence[str]
) -> List[List[str]]:
    """All left-deep orders with connected prefixes (or all orders if the
    query itself is disconnected)."""
    hg = query.hypergraph
    attr_sets = {n: set(hg.edge(n)) for n in names}
    connected_query = hg.is_connected()
    out: List[List[str]] = []
    for perm in itertools.permutations(names):
        if connected_query:
            covered = set(attr_sets[perm[0]])
            ok = True
            for name in perm[1:]:
                if not (covered & attr_sets[name]):
                    ok = False
                    break
                covered |= attr_sets[name]
            if not ok:
                continue
        out.append(list(perm))
    return out


def _estimate_order_cost(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    order: Sequence[str],
) -> float:
    """Sum of estimated intermediate sizes along a left-deep order."""
    hg = query.hypergraph
    current_attrs = set(hg.edge(order[0]))
    current_size = float(len(database[order[0]]))
    # distinct counts per attribute for the running intermediate: use the
    # base relation's statistics as a proxy.
    distinct: Dict[str, float] = {}
    for name in order:
        rel = database[name]
        for a in rel.attrs:
            d = float(rel.key_cardinality([a]))
            distinct[a] = max(distinct.get(a, 1.0), d)
    total = 0.0
    for name in order[1:]:
        rel = database[name]
        shared = [a for a in rel.attrs if a in current_attrs]
        size = current_size * float(len(rel))
        for a in shared:
            size /= max(distinct.get(a, 1.0), 1.0)
        total += size
        current_size = max(size, 1.0)
        current_attrs |= set(rel.attrs)
        if total == float("inf"):
            break
    return total


def _greedy_order(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    names: Sequence[str],
) -> List[str]:
    """Greedy smallest-estimated-growth order for large queries."""
    remaining = set(names)
    start = min(remaining, key=lambda n: len(database[n]))
    order = [start]
    remaining.discard(start)
    hg = query.hypergraph
    covered = set(hg.edge(start))
    while remaining:
        connected = [n for n in remaining if covered & set(hg.edge(n))]
        pool = connected or list(remaining)
        nxt = min(pool, key=lambda n: len(database[n]))
        order.append(nxt)
        remaining.discard(nxt)
        covered |= set(hg.edge(nxt))
    return order


def baseline_join(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    order: Optional[Sequence[str]] = None,
    track_intermediates: Optional[List[int]] = None,
    binary_strategy: str = DEFAULT_STRATEGY,
    stats: Optional[ExecutionStats] = None,
) -> JoinResultSet:
    """Pairwise BASELINE evaluation of a τ-durable temporal join.

    ``track_intermediates``, when given a list, receives the materialized
    size after each binary join — the quantity the paper's memory figures
    are about. ``binary_strategy`` picks the per-key interval-join family
    used by every binary join (the paper's BASELINE used the forward
    scan, "experimentally verified as the most efficient"; the default
    is now the lazy sweep, which beat it on the ratio-gated ``allen``
    workloads of ``BENCH_gates.json`` — the ablation bench measures the
    other families).

    ``stats`` opts into telemetry: ``bin.joins`` and the
    ``bin.intermediate_rows`` distribution — each binary join's
    materialized cardinality, the Figure 8 blow-up as a number — plus
    ``phase.order_search`` / ``phase.joins`` timers and ``results``.
    """
    query.validate(database)
    db = shrink_database(database, tau)
    if order is not None:
        join_order = list(order)
    elif stats is None:
        join_order = choose_join_order(query, db)
    else:
        with stats.timer("phase.order_search"):
            join_order = choose_join_order(query, db)
    if sorted(join_order) != sorted(query.edge_names):
        raise QueryError(
            f"join order {join_order} must be a permutation of {query.edge_names}"
        )
    joins_start = time.perf_counter()
    current = db[join_order[0]]
    for name in join_order[1:]:
        current = binary_temporal_join(
            current, db[name], strategy=binary_strategy, stats=stats
        )
        if stats is not None:
            stats.incr("bin.joins")
            stats.observe("bin.intermediate_rows", len(current))
        if track_intermediates is not None:
            track_intermediates.append(len(current))
        if len(current) == 0:
            break
    out = JoinResultSet(query.attrs)
    perm = current.positions(query.attrs) if len(current) else ()
    for values, interval in current:
        out.append(tuple(values[p] for p in perm), interval)
    if stats is not None:
        stats.add_time("phase.joins", time.perf_counter() - joins_start)
        stats.incr("results", len(out))
    return out.expand_intervals(tau / 2 if tau else 0)
