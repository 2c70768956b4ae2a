"""Brute-force reference oracle for correctness tests.

A recursive backtracking join: bind relations one at a time, checking
value consistency on shared attributes and the running interval
intersection. The control flow is short enough to be *obviously* correct,
which is the entire point — every production algorithm in the library is
differential-tested against this oracle on randomized instances.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..core.durability import shrink_database
from ..core.interval import Interval, Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..obs import NULL_TRACER, Tracer


def naive_join(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    stats: Optional[Tracer] = None,
) -> JoinResultSet:
    """τ-durable temporal join by exhaustive backtracking.

    ``stats`` records ``naive.candidates`` — every (partial binding,
    tuple) pair the backtracking considered — and ``results``. Values
    are bound by the relation's own attribute names, whatever order its
    query edge lists them in.
    """
    stats = NULL_TRACER if stats is None else stats
    query.validate(database)
    db = shrink_database(database, tau)
    names = query.edge_names
    edge_attrs = {name: db[name].attrs for name in names}
    out = JoinResultSet(query.attrs)
    binding: Dict[str, object] = {}
    candidates = 0

    def recurse(idx: int, interval: Interval) -> None:
        nonlocal candidates
        if idx == len(names):
            out.append(tuple(binding[a] for a in query.attrs), interval)
            return
        name = names[idx]
        attrs = edge_attrs[name]
        for values, ivl in db[name]:
            candidates += 1
            ok = True
            added: List[str] = []
            for attr, value in zip(attrs, values):
                if attr in binding:
                    if binding[attr] != value:
                        ok = False
                        break
                else:
                    binding[attr] = value
                    added.append(attr)
            if ok:
                joint = interval.intersect(ivl)
                if joint is not None:
                    recurse(idx + 1, joint)
            for attr in added:
                del binding[attr]

    recurse(0, Interval.always())
    stats.incr("naive.candidates", candidates)
    stats.incr("results", len(out))
    half = tau / 2 if tau else 0
    return out.expand_intervals(half)


def naive_nontemporal_join(
    query: JoinQuery, database: Mapping[str, TemporalRelation]
) -> List[Tuple[object, ...]]:
    """Value-only join (temporal predicate ignored), for JOINFIRST tests."""
    query.validate(database)
    names = query.edge_names
    edge_attrs = {name: database[name].attrs for name in names}
    results: List[Tuple[object, ...]] = []
    binding: Dict[str, object] = {}

    def recurse(idx: int) -> None:
        if idx == len(names):
            results.append(tuple(binding[a] for a in query.attrs))
            return
        name = names[idx]
        attrs = edge_attrs[name]
        for values, _ in database[name]:
            ok = True
            added: List[str] = []
            for attr, value in zip(attrs, values):
                if attr in binding:
                    if binding[attr] != value:
                        ok = False
                        break
                else:
                    binding[attr] = value
                    added.append(attr)
            if ok:
                recurse(idx + 1)
            for attr in added:
                del binding[attr]

    recurse(0)
    return results
