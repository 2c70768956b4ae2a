"""Temporal join algorithms: TIMEFIRST, HYBRID, baselines, oracles."""

from .baseline import baseline_join, choose_join_order
from .binary import binary_temporal_join
from .hardness import (
    counterpart_instance,
    nontemporal_counterpart,
    triangle_listing_instance,
    triangles_from_line3_results,
)
from .hybrid import hybrid_join, materialize_bag, select_hybrid_ghd
from .hybrid_interval import hybrid_interval_join
from .interval_join import forward_scan_join, interval_join
from .joinfirst import joinfirst_join
from .naive import naive_join, naive_nontemporal_join
from .online import OnlineTemporalJoin, arrivals_from_database, stream_temporal_join
from .registry import (
    ExplainAnalyze,
    available_algorithms,
    explain_analyze,
    get_algorithm,
    temporal_join,
)
from .timefirst import sweep, timefirst_join
from .topk import durability_histogram, top_k_durable

__all__ = [
    "ExplainAnalyze",
    "available_algorithms",
    "baseline_join",
    "binary_temporal_join",
    "choose_join_order",
    "counterpart_instance",
    "explain_analyze",
    "forward_scan_join",
    "get_algorithm",
    "hybrid_interval_join",
    "hybrid_join",
    "interval_join",
    "joinfirst_join",
    "materialize_bag",
    "OnlineTemporalJoin",
    "arrivals_from_database",
    "durability_histogram",
    "naive_join",
    "naive_nontemporal_join",
    "nontemporal_counterpart",
    "select_hybrid_ghd",
    "stream_temporal_join",
    "sweep",
    "top_k_durable",
    "temporal_join",
    "timefirst_join",
    "triangle_listing_instance",
    "triangles_from_line3_results",
]
