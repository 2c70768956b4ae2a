"""Time-domain partitioning: endpoint-balanced windows + ownership rule.

The parallel engine splits the global timeline into ``p`` contiguous
windows and runs the *unmodified* serial algorithm on each window's
sub-database. Two functions of the cut points make that correct:

* **Assignment** (boundary replication): a tuple is shipped to every
  shard whose window its valid interval overlaps, so each shard sees a
  self-contained sub-instance. Piatov et al. use the same replication
  for domain-partitioned interval joins.
* **Ownership** (exactly-once emission): shard ``i`` *owns* the
  half-open time range ``[c_i, c_{i+1})`` (the first shard's range is
  open at ``-inf``, the last one's closed at ``+inf``), and a join
  result belongs to the shard owning the **right endpoint of its
  intersection interval** — the instant at which TIMEFIRST's sweep would
  finalize it. Every constituent tuple of a result contains that instant
  inside its own interval, hence is assigned to the owning shard; and
  the ownership ranges partition the time axis, so the global result is
  the plain concatenation of per-shard outputs. No deduplication ever
  runs.

Cut points are **endpoint-balanced**: they are drawn from the quantiles
of the sorted multiset of all ``2N`` interval endpoints, not from an
even division of the time span. A sweep's work is proportional to the
events (endpoints) it processes, so balancing endpoints balances work
even under heavy temporal skew.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from ..core.errors import QueryError
from ..core.interval import Interval, Number
from ..core.relation import TemporalRelation

_NEG_INF = float("-inf")
_POS_INF = float("inf")

Database = Mapping[str, TemporalRelation]


@dataclass(frozen=True)
class TimePartition:
    """``p`` contiguous time windows described by ``p - 1`` interior cuts.

    ``cuts`` must be strictly increasing and finite; ``p = len(cuts) + 1``.
    Shard ``i`` owns the half-open range ``[cuts[i-1], cuts[i])`` with the
    conventions ``cuts[-1] = -inf`` (open) and ``cuts[p-1] = +inf``
    (closed: ``+inf`` itself belongs to the last shard).
    """

    cuts: Tuple[Number, ...]

    def __post_init__(self) -> None:
        for i, c in enumerate(self.cuts):
            if c != c or c in (_NEG_INF, _POS_INF):
                raise QueryError(f"partition cut {c!r} must be finite")
            if i and not self.cuts[i - 1] < c:
                raise QueryError(
                    f"partition cuts must be strictly increasing, got {self.cuts}"
                )

    @property
    def n_shards(self) -> int:
        return len(self.cuts) + 1

    def window(self, shard: int) -> Interval:
        """Closed time window of ``shard`` (for display and telemetry)."""
        lo = self.cuts[shard - 1] if shard > 0 else _NEG_INF
        hi = self.cuts[shard] if shard < len(self.cuts) else _POS_INF
        return Interval(lo, hi)

    def owner(self, t: Number) -> int:
        """The unique shard owning instant ``t`` (exactly-once rule).

        Monotone in ``t``; a cut point belongs to the shard *starting*
        there, so the ownership ranges tile the whole extended time axis.
        """
        return bisect.bisect_right(self.cuts, t)

    def shard_range(self, interval: Interval) -> Tuple[int, int]:
        """Inclusive shard index range ``interval`` must be assigned to.

        A shard needs a tuple exactly when some result it *owns* could
        involve the tuple — i.e. when the tuple's interval meets the
        shard's owned range. Because a result's right endpoint always
        lies inside every constituent interval, that is precisely the
        shards from ``owner(lo)`` through ``owner(hi)``; anything wider
        would be useless replication, anything narrower loses results.
        """
        return self.owner(interval.lo), self.owner(interval.hi)


def collect_endpoints(database: Database) -> List[Number]:
    """Sorted multiset of all finite interval endpoints in ``database``."""
    out: List[Number] = []
    for rel in database.values():
        for t in rel.endpoints():
            if _NEG_INF < t < _POS_INF:
                out.append(t)
    out.sort()
    return out


def partition_timeline(database: Database, shards: int) -> TimePartition:
    """Endpoint-balanced partition of ``database``'s timeline into ``shards``.

    Cut candidates are the ``j/p`` quantiles of the sorted endpoint
    multiset. Duplicate or infinite candidates are dropped, so heavily
    repeated timestamps (or an all-``always()`` database) yield fewer
    effective shards than requested — possibly just one. The caller
    reads the effective count off the returned partition.
    """
    if shards < 1:
        raise QueryError(f"shard count must be >= 1, got {shards}")
    if shards == 1:
        return TimePartition(())
    return partition_endpoints(collect_endpoints(database), shards)


def partition_endpoints(endpoints: Sequence[Number], shards: int) -> TimePartition:
    """Endpoint-balanced cuts over a sorted multiset of finite ``endpoints``.

    The quantile rule of :func:`partition_timeline`, for callers that
    hold the endpoints already (the kernel shard route takes them from
    the columns its semijoin pass kept).
    """
    if shards <= 1 or not endpoints:
        return TimePartition(())
    cuts: List[Number] = []
    n = len(endpoints)
    for j in range(1, shards):
        candidate = endpoints[min(n - 1, (j * n) // shards)]
        if not cuts or candidate > cuts[-1]:
            cuts.append(candidate)
    # A cut at or below the global minimum endpoint would leave shard 0
    # owning nothing; harmless, but dropping it keeps shards non-trivial.
    lo = endpoints[0]
    cuts = [c for c in cuts if c > lo]
    return TimePartition(tuple(cuts))


def shard_databases(
    database: Database, partition: TimePartition
) -> List[Dict[str, TemporalRelation]]:
    """Materialize each shard's sub-database by boundary replication.

    Every relation appears in every shard (possibly empty) so each
    sub-database still validates against the query schema. Distinctness
    is not re-checked: shard rows are a subset of already-validated rows.
    """
    p = partition.n_shards
    buckets: List[Dict[str, List]] = [
        {name: [] for name in database} for _ in range(p)
    ]
    for name, rel in database.items():
        for row in rel.rows:
            first, last = partition.shard_range(row[1])
            for shard in range(first, last + 1):
                buckets[shard][name].append(row)
    out: List[Dict[str, TemporalRelation]] = []
    for shard in range(p):
        out.append(
            {
                name: _from_rows(database[name], rows)
                for name, rows in buckets[shard].items()
            }
        )
    return out


def _from_rows(template: TemporalRelation, rows: Sequence) -> TemporalRelation:
    """A relation with ``template``'s schema over pre-validated ``rows``."""
    rel = TemporalRelation(template.name, template.attrs, check_distinct=False)
    rel._rows = list(rows)
    return rel


def replication_factor(
    database: Database, shard_dbs: Sequence[Database]
) -> Tuple[int, int]:
    """``(input_tuples, replicated_tuples)`` for the telemetry counters.

    ``replicated_tuples`` counts the extra copies created by boundary
    replication: total tuples across shards minus the input size.
    """
    total_input = sum(len(rel) for rel in database.values())
    total_assigned = sum(
        len(rel) for db in shard_dbs for rel in db.values()
    )
    return total_input, total_assigned - total_input
