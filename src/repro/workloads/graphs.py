"""Temporal graphs and graph-pattern temporal joins.

The paper evaluates graph workloads (Flights, DBLP) by self-joining the
edge table: a pattern query like the length-3 path is three renamed
copies of the edge relation (Figure 2). This module provides

* :class:`TemporalGraph` — a multigraph whose edges carry valid intervals
  (or disjoint interval sets);
* relation exports — directed or symmetrized edge tables;
* pattern-query helpers for the shapes of Section 6 (lines, stars,
  cycles, bowtie) including the canonical-pattern counting used for the
  Figure 1 durability histogram (each undirected pattern counted once,
  repeated vertices excluded).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from ..core.interval import Interval, IntervalLike, IntervalSet
from ..core.query import JoinQuery, self_join_database
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..algorithms.registry import temporal_join


@dataclass
class TemporalGraph:
    """An undirected temporal graph: edges with valid intervals."""

    edges: List[Tuple[object, object, Interval]] = field(default_factory=list)

    def add_edge(self, u: object, v: object, interval: IntervalLike) -> None:
        self.edges.append((u, v, Interval.coerce(interval)))

    @property
    def vertex_count(self) -> int:
        vertices: Set[object] = set()
        for u, v, _ in self.edges:
            vertices.add(u)
            vertices.add(v)
        return len(vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    # ------------------------------------------------------------------
    # Relation exports
    # ------------------------------------------------------------------
    def edge_relation(
        self,
        name: str = "E",
        attrs: Sequence[str] = ("u", "v"),
        symmetric: bool = True,
    ) -> TemporalRelation:
        """The edge table; ``symmetric=True`` adds both directions.

        Multi-edges between the same pair with overlapping intervals are
        coalesced per direction (tuples must stay distinct).
        """
        per_pair: Dict[Tuple[object, object], List[Interval]] = {}
        for u, v, ivl in self.edges:
            per_pair.setdefault((u, v), []).append(ivl)
            if symmetric:
                per_pair.setdefault((v, u), []).append(ivl)
        rows = []
        for pair, intervals in per_pair.items():
            episodes = IntervalSet(intervals)
            # The flat export keeps the most durable validity episode per
            # edge; multi-episode analyses should go through
            # edge_relation_episodes() + durability.explode_interval_sets.
            best = max(episodes, key=lambda iv: iv.duration)
            rows.append((pair, best))
        return TemporalRelation(name, attrs, rows)

    def edge_relation_episodes(
        self, name: str = "E", attrs: Sequence[str] = ("u", "v")
    ) -> List[Tuple[Tuple[object, object], IntervalSet]]:
        """Edges with their full disjoint-interval validity sets."""
        per_pair: Dict[Tuple[object, object], List[Interval]] = {}
        for u, v, ivl in self.edges:
            per_pair.setdefault((u, v), []).append(ivl)
            per_pair.setdefault((v, u), []).append(ivl)
        return [
            (pair, IntervalSet(intervals)) for pair, intervals in per_pair.items()
        ]

    # ------------------------------------------------------------------
    # Pattern evaluation
    # ------------------------------------------------------------------
    def pattern_database(
        self, query: JoinQuery, symmetric: bool = True
    ) -> Dict[str, TemporalRelation]:
        """Bind every binary edge of ``query`` to this graph's edge table."""
        rel = self.edge_relation(symmetric=symmetric)
        return self_join_database(query, rel)

    def pattern_join(
        self,
        query: JoinQuery,
        tau: float = 0,
        algorithm: str = "auto",
        symmetric: bool = True,
    ) -> JoinResultSet:
        """Temporal pattern join over the (self-joined) edge table."""
        db = self.pattern_database(query, symmetric=symmetric)
        return temporal_join(query, db, tau=tau, algorithm=algorithm)


# ----------------------------------------------------------------------
# Canonical pattern counting (Figure 1, right)
# ----------------------------------------------------------------------
def count_durable_patterns(
    graph: TemporalGraph,
    pattern: str,
    thresholds: Sequence[float],
    algorithm: str = "auto",
) -> Dict[float, int]:
    """Count canonical durable patterns at each durability threshold.

    ``pattern`` ∈ {"path2", "path3", "star3", "triangle"}. Patterns are
    canonicalized so each undirected occurrence counts once, and patterns
    with repeated vertices are excluded — this is the semantics behind
    Figure 1's "number of durable patterns" curves.
    """
    query, canonical = _PATTERNS[pattern]
    results = graph.pattern_join(query, tau=0, algorithm=algorithm)
    durations: List[float] = []
    for values, interval in results:
        if canonical(values):
            durations.append(interval.duration)
    durations.sort()
    import bisect

    out: Dict[float, int] = {}
    for tau in thresholds:
        out[tau] = len(durations) - bisect.bisect_left(durations, tau)
    return out


def _canonical_path2(v: Tuple[object, ...]) -> bool:
    a, b, c = v
    return a < c and len({a, b, c}) == 3


def _canonical_path3(v: Tuple[object, ...]) -> bool:
    a, b, c, d = v
    return a < d and len({a, b, c, d}) == 4


def _canonical_star3(v: Tuple[object, ...]) -> bool:
    # star(3) attrs order: (x1, y, x2, x3) — first-appearance order.
    x1, y, x2, x3 = v
    return x1 < x2 < x3 and y not in (x1, x2, x3)


def _canonical_triangle(v: Tuple[object, ...]) -> bool:
    a, b, c = v
    return a < b < c


_PATTERNS = {
    "path2": (JoinQuery.line(2), _canonical_path2),
    "path3": (JoinQuery.line(3), _canonical_path3),
    "star3": (JoinQuery.star(3), _canonical_star3),
    "triangle": (JoinQuery.triangle(), _canonical_triangle),
}


def pattern_query(pattern: str) -> JoinQuery:
    """The join query behind a named pattern."""
    return _PATTERNS[pattern][0]


# ----------------------------------------------------------------------
# Random temporal graph generator (power-law-ish degrees)
# ----------------------------------------------------------------------
def random_temporal_graph(
    n_vertices: int,
    n_edges: int,
    time_span: int = 1000,
    mean_duration: int = 60,
    hub_bias: float = 0.5,
    seed: int = 11,
) -> TemporalGraph:
    """A skewed-degree temporal graph.

    With probability ``hub_bias`` an endpoint is sampled from the first
    √n vertices (the hubs), otherwise uniformly — giving the heavy-tailed
    degree profile of collaboration and flight networks. Durations are
    geometric with the given mean.
    """
    rng = random.Random(seed)
    hubs = max(1, int(n_vertices**0.5))
    graph = TemporalGraph()
    seen: Set[Tuple[object, object]] = set()
    attempts = 0
    while graph.edge_count < n_edges and attempts < n_edges * 20:
        attempts += 1
        u = rng.randrange(hubs) if rng.random() < hub_bias else rng.randrange(n_vertices)
        v = rng.randrange(hubs) if rng.random() < hub_bias else rng.randrange(n_vertices)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        start = rng.randrange(time_span)
        duration = min(int(rng.expovariate(1.0 / mean_duration)) + 1, time_span)
        graph.add_edge(key[0], key[1], Interval(start, start + duration))
    return graph
