"""LDBC-SNB-like PersonKnowsPerson table and line self-joins.

The paper uses LDBC's Social Network Benchmark to model evolving
friendships: ``PersonKnowsPerson(PersonId, PersonId, StartTime,
CurrentTime)``. Figure 9 runs a line join with τ = 11 while scaling N
from 10K to 2M and measures throughput (results per time unit), showing
it stays flat for output-sensitive algorithms.

The generator grows a preferential-attachment-flavoured friendship graph
over simulation time: each friendship starts when the younger member has
joined and usually persists to the "current time" (LDBC friendships are
rarely deleted), giving the long-overlap interval profile that makes the
output size dominate the input size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.interval import Interval
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from .graphs import TemporalGraph


@dataclass
class LDBCConfig:
    """Scale knobs; ``n_knows`` is the paper's x-axis N."""

    n_persons: int = 400
    n_knows: int = 1200
    sim_span: int = 1000  # simulation duration
    delete_fraction: float = 0.15  # friendships that ended early
    hub_bias: float = 0.55
    seed: int = 11


def generate_graph(config: LDBCConfig = LDBCConfig()) -> TemporalGraph:
    """Build the person-knows-person temporal graph."""
    rng = random.Random(config.seed)
    join_time = [rng.randrange(config.sim_span // 2) for _ in range(config.n_persons)]
    hubs = max(1, int(config.n_persons**0.5))
    graph = TemporalGraph()
    seen = set()
    attempts = 0
    while graph.edge_count < config.n_knows and attempts < config.n_knows * 30:
        attempts += 1
        u = rng.randrange(hubs) if rng.random() < config.hub_bias else rng.randrange(config.n_persons)
        v = rng.randrange(config.n_persons)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        start = max(join_time[u], join_time[v]) + rng.randrange(
            max(1, config.sim_span // 10)
        )
        if start >= config.sim_span:
            continue
        if rng.random() < config.delete_fraction:
            end = rng.randrange(start, config.sim_span)
        else:
            end = config.sim_span  # persists to current time
        graph.add_edge(f"p{key[0]}", f"p{key[1]}", Interval(start, end))
    return graph


def knows_relation(config: LDBCConfig = LDBCConfig()) -> TemporalRelation:
    """The PersonKnowsPerson edge table (symmetric)."""
    return generate_graph(config).edge_relation(
        name="knows", attrs=("p1", "p2"), symmetric=True
    )


def line_query(n: int = 3) -> JoinQuery:
    """The line self-join over PersonKnowsPerson used by Figure 9."""
    return JoinQuery.line(n)
