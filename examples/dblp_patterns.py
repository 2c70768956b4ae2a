#!/usr/bin/env python
"""Durable coauthorship patterns on a DBLP-like graph (Example 2 / Figure 1).

Generates a DBLP-like temporal collaboration network, then uses durable
temporal joins to count how many length-2 paths, length-3 paths, 3-way
stars, and triangles persisted for at least τ years, for a sweep of τ —
regenerating the right-hand chart of Figure 1 on synthetic data.

Also demonstrates the multi-episode interval machinery: collaborations
with publication gaps are exploded into episodes, joined, and coalesced
back.

Run:  python examples/dblp_patterns.py
"""

from repro import JoinQuery, temporal_join
from repro.bench.reporting import render_series
from repro.core.durability import coalesce_results, explode_interval_sets
from repro.workloads import dblp
from repro.workloads.graphs import count_durable_patterns

THRESHOLDS = [0, 1, 2, 3, 5, 8, 12, 16, 20]
PATTERNS = ["path2", "path3", "star3", "triangle"]


def main() -> None:
    config = dblp.DBLPConfig(n_authors=400, n_edges=1200, seed=9)
    graph = dblp.generate_graph(config)
    print(
        f"DBLP-like graph: {graph.vertex_count} authors, "
        f"{graph.edge_count} collaboration edges"
    )
    print()

    # ------------------------------------------------------------------
    # Figure 1 (right): durable pattern counts vs threshold τ.
    # ------------------------------------------------------------------
    series = {}
    for pattern in PATTERNS:
        counts = count_durable_patterns(graph, pattern, THRESHOLDS)
        series[pattern] = [float(counts[tau]) for tau in THRESHOLDS]
    print(
        render_series(
            "Durable coauthorship patterns vs durability threshold (years)",
            THRESHOLDS,
            series,
            x_label="tau",
            fmt="{:.0f}",
        )
    )
    print()

    # ------------------------------------------------------------------
    # Multi-episode collaborations: the paper's "set of disjoint
    # intervals" model. Explode → join → coalesce.
    # ------------------------------------------------------------------
    episodes = graph.edge_relation_episodes()
    multi = [(pair, ivs) for pair, ivs in episodes if len(ivs) > 1]
    print(f"Author pairs with >1 collaboration episode: {len(multi) // 2}")
    exploded = explode_interval_sets("E", ("u", "v"), episodes)
    query = JoinQuery(
        {
            "R1": ("x1", "x2", "e1"),
            "R2": ("x2", "x3", "e2"),
        }
    )
    db = {
        "R1": exploded.rename({"u": "x1", "v": "x2", "__episode__": "e1"}, name="R1"),
        "R2": exploded.rename({"u": "x2", "v": "x3", "__episode__": "e2"}, name="R2"),
    }
    raw = temporal_join(query, db, tau=2)
    merged = coalesce_results(raw, hidden_attrs=("e1", "e2"))
    print(
        f"2-durable length-2 paths over episode-aware edges: {len(merged)} "
        f"(from {len(raw)} episode combinations)"
    )


if __name__ == "__main__":
    main()
