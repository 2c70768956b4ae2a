"""Durable joins and the paper's temporal-predicate reformulations.

Section 2.1 ("Remarks on Other Temporal Join Models") shows that a broad
class of temporal predicates reduce to the plain non-empty-intersection
model by transforming valid intervals up front:

* **τ-durable joins** — shrink every interval by τ/2; empty intervals drop
  out; the temporal join of the shrunk instance is exactly the τ-durable
  join of the original (:func:`shrink_database`). Result intervals are
  recovered by expanding back (:meth:`JoinResultSet.expand_intervals`).
* **Instant-stamped data within τ** — widen each timestamp ``t`` to
  ``[t - τ/2, t + τ/2]`` (:func:`widen_instants`).
* **Lead/lag with gap ≥ τ** — map the leading relation's intervals to
  ``[t+, +inf)`` and the trailing one's to ``(-inf, t-]``, then run a
  τ-durable join (:func:`lead_lag_transform`).
* **Relative positioning patterns** — shift each relation's intervals by
  the pattern interval's endpoints so that a common shift Δ exists iff the
  transformed intervals intersect (:func:`relative_pattern_transform`).
* **Multi-interval tuples** — explode an interval-set-valued relation into
  distinct single-interval pseudo-tuples (:func:`explode_interval_sets`)
  and re-coalesce result intervals (:func:`coalesce_results`).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .errors import QueryError
from .interval import Interval, IntervalSet, Number, intersect_all
from .relation import TemporalRelation
from .result import JoinResultSet

Database = Mapping[str, TemporalRelation]


def check_threshold(tau: Number) -> None:
    """Reject a durability threshold no shrink can apply: NaN or negative.

    Every τ/2 shrink (:func:`shrink_database` here, and the rank-space
    shrink of :mod:`repro.kernels.columns`) checks its amount with this
    one function, so all of them fail with the same :class:`QueryError`.
    """
    if math.isnan(tau):
        raise QueryError(f"durability threshold must not be NaN, got {tau}")
    if tau < 0:
        raise QueryError(f"durability threshold must be >= 0, got {tau}")


def shrink_database(database: Database, tau: Number) -> Dict[str, TemporalRelation]:
    """Apply the τ/2 shrink to every relation (the τ-durable reduction).

    Runs in ``O(N)``; relations keep their names so the query binding is
    unchanged. With ``tau == 0`` the database is returned as-is (well,
    shallow-copied) because the shrink is the identity.
    """
    check_threshold(tau)
    if tau == 0:
        return dict(database)
    half = tau / 2
    return {name: rel.shrink(half) for name, rel in database.items()}


def widen_instants(
    relation: TemporalRelation, tau: Number
) -> TemporalRelation:
    """Instant-stamped data: replace ``[t, t]`` with ``[t - τ/2, t + τ/2]``.

    After widening, a 0-durable temporal join finds tuple groups whose
    timestamps all lie within τ of each other (pairwise), matching the
    paper's first reformulation example.
    """
    half = tau / 2
    return relation.map_intervals(lambda iv: Interval(iv.lo - half, iv.hi + half))


def lead_lag_transform(
    leader: TemporalRelation, follower: TemporalRelation
) -> Tuple[TemporalRelation, TemporalRelation]:
    """Lead/lag predicate: leader ends before follower starts.

    Transform leader intervals ``[t-, t+] → [t+, +inf)`` and follower
    intervals ``→ (-inf, t-]``. A τ-durable temporal join of the
    transformed relations finds pairs where the leader leads by ≥ τ.
    """
    lead = leader.map_intervals(lambda iv: Interval(iv.hi, float("inf")))
    follow = follower.map_intervals(lambda iv: Interval(float("-inf"), iv.lo))
    return lead, follow


def relative_pattern_transform(
    database: Database, pattern: Mapping[str, Interval]
) -> Dict[str, TemporalRelation]:
    """Relative-positioning predicate (third reformulation example).

    For each relation ``e`` with pattern interval ``I_e = [p-, p+]``,
    transform every tuple interval ``[t-, t+]`` into ``[t- - p-, t+ - p+]``
    (dropped when empty, i.e. when the tuple interval is longer than the
    pattern window). A shift Δ with ``I + Δ ⊆ I_e`` exists for all relations
    simultaneously iff the transformed intervals share a common point — so
    a 0-durable temporal join on the transformed instance answers the
    pattern query. Note the transformed interval is ``{Δ : I + Δ ⊆ I_e}``
    negated; intersection over relations is the set of feasible shifts.
    """
    out: Dict[str, TemporalRelation] = {}
    for name, rel in database.items():
        if name not in pattern:
            out[name] = rel
            continue
        p = pattern[name]

        def transform(iv: Interval, p: Interval = p) -> Interval | None:
            lo = p.lo - iv.lo  # smallest feasible shift
            hi = p.hi - iv.hi  # largest feasible shift
            if lo > hi:
                return None
            return Interval(lo, hi)

        out[name] = rel.map_intervals(transform)
    return out


def explode_interval_sets(
    name: str,
    attrs: Sequence[str],
    rows: Iterable[Tuple[Sequence[object], IntervalSet]],
    episode_attr: str = "__episode__",
) -> TemporalRelation:
    """Explode multi-interval tuples into distinct single-interval rows.

    The paper's model assumes distinct tuples; a tuple valid over a *set*
    of disjoint intervals (e.g. DBLP co-authorships with publication gaps)
    is represented by one pseudo-tuple per validity episode, disambiguated
    by an extra hidden attribute. Use :func:`coalesce_results` afterwards
    to merge episodes back together in the output.
    """
    exploded = []
    for values, ivset in rows:
        for idx, interval in enumerate(ivset):
            exploded.append((tuple(values) + (idx,), interval))
    return TemporalRelation(name, tuple(attrs) + (episode_attr,), exploded)


def coalesce_results(
    results: JoinResultSet, hidden_attrs: Sequence[str]
) -> JoinResultSet:
    """Drop hidden episode attributes and coalesce intervals per tuple.

    The output associates each surviving value tuple with the *set* of
    disjoint intervals over which it holds; since :class:`JoinResultSet`
    rows are single-interval, a tuple valid over k disjoint episodes
    appears k times, each with one coalesced interval.
    """
    hidden = set(hidden_attrs)
    keep_pos = [i for i, a in enumerate(results.attrs) if a not in hidden]
    keep_attrs = [results.attrs[i] for i in keep_pos]
    grouped: Dict[Tuple[object, ...], List[Interval]] = {}
    order: List[Tuple[object, ...]] = []
    for values, interval in results:
        key = tuple(values[p] for p in keep_pos)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(interval)
    out = JoinResultSet(keep_attrs)
    for key in order:
        for interval in IntervalSet(grouped[key]):
            out.append(key, interval)
    return out


def temporal_join_multi(
    query,
    databases: Mapping[str, Iterable[Tuple[Sequence[object], IntervalSet]]],
    tau: Number = 0,
    algorithm: str = "auto",
) -> JoinResultSet:
    """Temporal join over relations whose tuples carry *interval sets*.

    The end-to-end wrapper for the paper's multi-interval model: each
    relation is given as ``(values, IntervalSet)`` rows; episodes are
    exploded into distinct pseudo-tuples, the τ-durable join runs on the
    exploded instance, and episode attributes are dropped again with the
    output intervals coalesced per value tuple. A result tuple valid over
    k disjoint episodes therefore appears k times, once per coalesced
    episode — the natural multi-interval output.
    """
    from ..algorithms.registry import temporal_join
    from .query import JoinQuery

    exploded_edges = {}
    exploded_db = {}
    hidden = []
    for name in query.edge_names:
        attrs = query.edge(name)
        episode_attr = f"__ep_{name}__"
        hidden.append(episode_attr)
        exploded_edges[name] = tuple(attrs) + (episode_attr,)
        exploded_db[name] = explode_interval_sets(
            name, attrs, databases[name], episode_attr=episode_attr
        )
    exploded_query = JoinQuery(
        exploded_edges, attr_order=tuple(query.attrs) + tuple(hidden)
    )
    raw = temporal_join(exploded_query, exploded_db, tau=tau, algorithm=algorithm)
    return coalesce_results(raw, hidden_attrs=hidden)


def durability(intervals: Iterable[Interval]) -> Number:
    """Durability of a combination of tuples: length of the intersection.

    Returns ``-inf`` when the intervals do not intersect at all, which
    compares below any τ ≥ 0.
    """
    joint = intersect_all(intervals)
    if joint is None:
        return float("-inf")
    return joint.duration
