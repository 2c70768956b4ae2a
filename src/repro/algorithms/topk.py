"""Top-k most durable temporal join results.

Semertzidis & Pitoura [73] (discussed in the paper's related work) find
the top-k *durable* graph patterns; the paper instead returns everything
above a threshold τ. This module bridges the two: the k most durable
results of any temporal join, without a user-supplied threshold.

Strategy — *durability probing*: the τ-durable join with a large τ is
tiny and cheap (the shrink transform drops most input outright), so we
probe geometrically decreasing thresholds until at least k results
survive, then keep the k most durable of that last run. Each probe costs
roughly an output-sensitive join on the surviving input, and thresholds
shrink the input fast, so the total cost is dominated by the final probe
— which is the cheapest run that still contains the answer. Ties at the
k-th durability are all returned (so the result may exceed k), matching
the usual top-k-with-ties semantics; pass ``break_ties=True`` to cut at
exactly k.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

from ..core.interval import Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from .registry import temporal_join


def top_k_durable(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    k: int,
    algorithm: str = "auto",
    break_ties: bool = False,
    initial_tau: Optional[Number] = None,
) -> JoinResultSet:
    """The k most durable temporal join results (plus ties, by default).

    Parameters
    ----------
    k:
        How many results to return; ``k <= 0`` returns an empty set.
    algorithm:
        Forwarded to :func:`repro.algorithms.registry.temporal_join` for
        every probe.
    break_ties:
        Cut at exactly ``k`` rows (deterministically, by tuple order)
        instead of returning every result tied with the k-th.
    initial_tau:
        First probe threshold; defaults to the largest input interval
        duration (no result can be more durable than its shortest
        constituent, so probing above that is pointless).
    """
    if k <= 0:
        return JoinResultSet(query.attrs)
    query.validate(database)

    max_duration = _max_input_duration(query, database)
    if max_duration <= 0:
        # All inputs are instants: every result has durability 0.
        full = temporal_join(query, database, tau=0, algorithm=algorithm)
        return _take(full, k, break_ties)

    tau = initial_tau if initial_tau is not None else max_duration
    seen: Optional[JoinResultSet] = None
    while True:
        probe = temporal_join(query, database, tau=tau, algorithm=algorithm)
        if len(probe) >= k or tau <= 0:
            seen = probe
            break
        seen = probe
        if tau < 1e-9 * max_duration:
            tau = 0
        else:
            tau = tau / 2 if tau > 1 else 0
    if len(seen) < k and tau > 0:  # pragma: no cover - loop exits at tau 0
        seen = temporal_join(query, database, tau=0, algorithm=algorithm)
    return _take(seen, k, break_ties)


def _take(results: JoinResultSet, k: int, break_ties: bool) -> JoinResultSet:
    ranked = sorted(
        results.rows, key=lambda row: (-row[1].duration, row[0], row[1].lo)
    )
    if len(ranked) <= k:
        return JoinResultSet(results.attrs, ranked)
    if break_ties:
        return JoinResultSet(results.attrs, ranked[:k])
    cutoff = ranked[k - 1][1].duration
    kept = [row for row in ranked if row[1].duration >= cutoff]
    return JoinResultSet(results.attrs, kept)


def _max_input_duration(
    query: JoinQuery, database: Mapping[str, TemporalRelation]
) -> Number:
    best: Number = 0
    for name in query.edge_names:
        for _, interval in database[name]:
            if interval.duration > best and interval.is_bounded:
                best = interval.duration
    return best


def durability_histogram(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    thresholds: List[Number],
    algorithm: str = "auto",
) -> dict:
    """Result counts at each durability threshold (the Figure 1 counter).

    Runs one τ = min(thresholds) join and counts by threshold — cheaper
    than one join per threshold when the smallest threshold already
    prunes well.
    """
    base = min(thresholds)
    results = temporal_join(query, database, tau=base, algorithm=algorithm)
    return results.count_by_thresholds(sorted(thresholds))
