"""Parallel execution engine: key- or time-sharded sweeps, exactly-once merge.

Runs any registered evaluation strategy across ``p`` shards — split by
an attribute every relation shares when the kernel engine runs, else
into contiguous time windows — and reassembles the global result
without deduplication. See ``DESIGN.md`` ("Parallel execution") for the
key-disjointness and ownership arguments; the entry point users normally reach is
``temporal_join(..., workers=p)`` in :mod:`repro.algorithms.registry`.
"""

from .executor import MODES, parallel_temporal_join
from .merge import merge_outcomes
from .partition import (
    TimePartition,
    collect_endpoints,
    partition_timeline,
    replication_factor,
    shard_databases,
)
from .worker import ShardOutcome, ShardTask, run_shard

__all__ = [
    "MODES",
    "ShardOutcome",
    "ShardTask",
    "TimePartition",
    "collect_endpoints",
    "merge_outcomes",
    "parallel_temporal_join",
    "partition_timeline",
    "replication_factor",
    "run_shard",
    "shard_databases",
]
