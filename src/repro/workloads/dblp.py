"""DBLP-like temporal collaboration graph.

The paper's DBLP workload is a coauthorship graph (2.8M authors, 9.5M
edges) where each edge carries the years two authors kept publishing
together — a set of disjoint intervals. We cannot ship the real snapshot,
so this generator reproduces the characteristics the paper's analysis
depends on:

* heavy-tailed degrees (a few prolific hub authors, a long tail);
* multi-year valid intervals with many short (1–3 year) collaborations
  and a few very durable ones — the Figure 1 histogram's shape;
* bursty temporal locality (collaborations cluster around an author's
  active period), which makes temporal predicates selective;
* optional multi-episode edges (collaboration gaps), exercising the
  IntervalSet machinery.

The scale is configurable; benches default to a few thousand edges so a
pure-Python run finishes in seconds while preserving the relative
algorithm behaviour (see DESIGN.md, substitutions).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..core.interval import Interval
from .graphs import TemporalGraph


@dataclass
class DBLPConfig:
    """Scale and shape knobs of the DBLP-like generator."""

    n_authors: int = 2000
    n_edges: int = 6000
    first_year: int = 1960
    last_year: int = 2021
    career_span: int = 25  # typical active window of an author
    mean_collab_years: float = 3.0
    long_collab_fraction: float = 0.05  # durable collaborations
    episode_fraction: float = 0.15  # edges with a publication gap
    hub_fraction: float = 0.02  # prolific authors
    hub_bias: float = 0.6
    seed: int = 2022


def generate_graph(config: DBLPConfig = DBLPConfig()) -> TemporalGraph:
    """Build the DBLP-like temporal collaboration graph."""
    rng = random.Random(config.seed)
    n = config.n_authors
    hubs = max(1, int(n * config.hub_fraction))
    # Each author gets an active career window; edges live inside the
    # overlap of their endpoints' windows, giving temporal locality.
    career_start = [
        rng.randrange(config.first_year, max(config.first_year + 1,
                                             config.last_year - 5))
        for _ in range(n)
    ]
    graph = TemporalGraph()
    seen = set()
    attempts = 0
    while graph.edge_count < config.n_edges and attempts < config.n_edges * 30:
        attempts += 1
        u = rng.randrange(hubs) if rng.random() < config.hub_bias else rng.randrange(n)
        v = rng.randrange(hubs) if rng.random() < config.hub_bias else rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        start_floor = max(career_start[u], career_start[v])
        if start_floor >= config.last_year:
            continue
        seen.add(key)
        for interval in _collaboration_intervals(config, rng, start_floor):
            graph.add_edge(f"a{key[0]}", f"a{key[1]}", interval)
    return graph


def _collaboration_intervals(
    config: DBLPConfig, rng: random.Random, start_floor: int
) -> List[Interval]:
    """One or two disjoint collaboration episodes for an author pair."""
    span_end = config.last_year
    start = rng.randrange(start_floor, span_end)
    if rng.random() < config.long_collab_fraction:
        years = rng.randrange(10, config.career_span)
    else:
        years = max(1, int(rng.expovariate(1.0 / config.mean_collab_years)))
    end = min(start + years, span_end)
    episodes = [Interval(start, end)]
    if rng.random() < config.episode_fraction and end + 3 < span_end:
        gap = rng.randrange(2, 6)
        restart = end + gap
        if restart < span_end:
            years2 = max(1, int(rng.expovariate(1.0 / config.mean_collab_years)))
            episodes.append(Interval(restart, min(restart + years2, span_end)))
    return episodes


def toy_figure1_graph() -> TemporalGraph:
    """The 5-author toy example of Figure 1 / Figure 2 (exact)."""
    graph = TemporalGraph()
    graph.add_edge("A", "B", (2013, 2017))
    graph.add_edge("A", "E", (2012, 2015))
    graph.add_edge("B", "C", (2011, 2015))
    graph.add_edge("B", "D", (2017, 2019))
    graph.add_edge("B", "E", (2013, 2016))
    graph.add_edge("C", "D", (2012, 2016))
    graph.add_edge("D", "E", (2016, 2018))
    return graph
