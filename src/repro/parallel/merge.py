"""Exactly-once merge: concatenate shard outputs, aggregate telemetry.

Because the ownership rule guarantees each join result is emitted by
exactly one shard, the merge is a plain concatenation in shard order —
no hashing, no deduplication, no interval coalescing. The only other
work here is folding per-shard :class:`~repro.obs.ExecutionStats` into
the caller's stats object and adding the parallel-layer counters
documented in ``DESIGN.md``:

* ``parallel.shards`` / ``parallel.workers`` — effective shard count and
  the worker processes used;
* ``parallel.replicated`` — extra tuple copies created by boundary
  replication (total assigned minus input size);
* ``parallel.shard_input`` / ``parallel.shard_results`` — per-shard size
  distributions (``.count`` / ``.total`` / ``.max``);
* ``parallel.skew_pct_peak`` — slowest shard's wall time as an integer
  percentage of the mean shard wall time (100 = perfectly balanced;
  ``_peak`` suffix so re-merging keeps the max);
* timers ``phase.parallel.shard00…`` and ``phase.parallel.workers`` —
  per-shard and summed worker wall-clock.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.query import JoinQuery
from ..core.result import JoinResultSet
from ..obs import NULL_TRACER, Tracer
from .worker import ShardOutcome


def merge_outcomes(
    query: JoinQuery,
    outcomes: Sequence[ShardOutcome],
    stats: Optional[Tracer] = None,
    workers: int = 1,
    replicated: int = 0,
) -> JoinResultSet:
    """Reassemble the global :class:`JoinResultSet` from shard outcomes.

    ``outcomes`` may arrive in any order (process pools preserve order,
    but nothing here depends on it); rows are concatenated in shard
    order so repeated runs produce identical row sequences.
    """
    stats = NULL_TRACER if stats is None else stats
    ordered = sorted(outcomes, key=lambda o: o.shard)
    result = JoinResultSet(query.attrs)
    times = []
    for outcome in ordered:
        result.extend(outcome.rows)
        stats.merge(outcome.stats)
        stats.observe("parallel.shard_input", outcome.input_size)
        stats.observe("parallel.shard_results", outcome.owned_results)
        stats.add_time(f"phase.parallel.shard{outcome.shard:02d}", outcome.seconds)
        times.append(outcome.seconds)
    stats.incr("parallel.shards", len(ordered))
    stats.incr("parallel.workers", workers)
    stats.incr("parallel.replicated", replicated)
    stats.add_time("phase.parallel.workers", sum(times))
    mean = sum(times) / len(times) if times else 0.0
    skew = round(100 * max(times) / mean) if mean > 0 else 100
    stats.peak("parallel.skew_pct_peak", skew)
    return result
