"""JOINFIRST: non-temporal join first, temporal filter last.

Section 6.1's second baseline: compute all value matches with a mature
non-temporal engine — the paper uses a subgraph matcher; we use the
worst-case-optimal GenericJoin, which plays the same role — then check
the valid-interval intersection of every match. Fast exactly when the
non-temporal result is small; catastrophically slow when temporal
predicates would have pruned early, which is the behaviour the paper's
Figure 10 shows and our benches reproduce.
"""

from __future__ import annotations

import time
from typing import Dict, Mapping, Optional, Tuple

from ..core.durability import shrink_database
from ..core.interval import Interval, Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..nontemporal.generic_join import generic_join_with_order
from ..obs import ExecutionStats

Values = Tuple[object, ...]


def joinfirst_join(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    stats: Optional[ExecutionStats] = None,
) -> JoinResultSet:
    """Evaluate a τ-durable temporal join with the join-first strategy.

    ``stats`` opts into telemetry: ``jf.matches`` (the non-temporal
    GenericJoin result size — the quantity that makes or breaks this
    strategy), ``jf.survivors`` (matches whose valid intervals actually
    intersect, == ``results``), and the ``phase.nontemporal_join`` /
    ``phase.filter`` timers.
    """
    query.validate(database)
    db = shrink_database(database, tau)
    if stats is None:
        matches, order = generic_join_with_order(query.hypergraph, db)
    else:
        with stats.timer("phase.nontemporal_join"):
            matches, order = generic_join_with_order(query.hypergraph, db)
        stats.incr("jf.matches", len(matches))
    order_pos = {a: i for i, a in enumerate(order)}

    # Interval lookup per relation, keyed on the relation's values in the
    # query edge's attribute order.
    lookups = []
    for name in query.edge_names:
        eattrs = query.edge(name)
        rel = db[name]
        rel_pos = rel.positions(eattrs)
        index: Dict[Values, Interval] = {
            tuple(values[p] for p in rel_pos): interval
            for values, interval in rel
        }
        lookups.append((tuple(order_pos[a] for a in eattrs), index))

    out_perm = tuple(order_pos[a] for a in query.attrs)
    out = JoinResultSet(query.attrs)
    filter_start = time.perf_counter()
    for match in matches:
        interval = Interval.always()
        alive = True
        for pos, index in lookups:
            ivl = index[tuple(match[p] for p in pos)]
            interval = interval.intersect(ivl)
            if interval is None:
                alive = False
                break
        if alive:
            out.append(tuple(match[p] for p in out_perm), interval)
    if stats is not None:
        stats.add_time("phase.filter", time.perf_counter() - filter_start)
        stats.incr("jf.survivors", len(out))
        stats.incr("results", len(out))
    half = tau / 2 if tau else 0
    return out.expand_intervals(half)
