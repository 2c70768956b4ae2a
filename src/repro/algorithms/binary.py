"""Binary temporal joins: equality on shared attributes + interval overlap.

The paper's BASELINE evaluates a multi-way temporal join as a sequence of
binary temporal joins (Section 6.1), each "resorting to the forward-scan-
based algorithm [26]". A binary temporal join partitions both relations by
the shared-attribute key and runs a forward-scan interval join per key
group; with no shared attributes it is a single interval join (a temporal
Cartesian product).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.interval import Interval
from ..core.relation import TemporalRelation
from ..obs import ExecutionStats
from .interval_join import DEFAULT_STRATEGY, interval_join


def binary_temporal_join(
    left: TemporalRelation,
    right: TemporalRelation,
    name: Optional[str] = None,
    strategy: str = DEFAULT_STRATEGY,
    predicate: str = "overlaps",
    stats: Optional[ExecutionStats] = None,
) -> TemporalRelation:
    """``left ⋈ right`` on shared attributes + an interval predicate.

    Output schema: ``left.attrs`` + right-only attributes; output interval:
    the intersection of the joining pair's intervals (the gap interval for
    ``predicate="before"``). Output tuples are distinct because the
    constituent pair is recoverable from the values. ``strategy`` selects
    the per-key interval-join family (``lazy-sweep`` — the default since
    it beat the paper's forward scan [26] on the ratio-gated benchmark —
    or ``forward-scan``); ``predicate`` picks
    an extended Allen predicate or ``-or-`` union (lazy-sweep only;
    default ``overlaps`` matches the paper's implicit join predicate).
    """
    shared = [a for a in left.attrs if a in set(right.attrs)]
    right_extra = [a for a in right.attrs if a not in set(left.attrs)]
    right_extra_pos = right.positions(right_extra)
    out_attrs = tuple(left.attrs) + tuple(right_extra)
    out = TemporalRelation(
        name or f"({left.name} ⋈t {right.name})", out_attrs, check_distinct=False
    )
    rows: List[Tuple[Tuple[object, ...], Interval]] = []

    if shared:
        left_groups = left.group_by(shared)
        right_groups = right.group_by(shared)
        # Iterate the smaller dictionary and probe the larger.
        if len(left_groups) > len(right_groups):
            keys = (k for k in right_groups if k in left_groups)
        else:
            keys = (k for k in left_groups if k in right_groups)
        for key in keys:
            pairs = interval_join(
                [(v, ivl) for v, ivl in left_groups[key]],
                [(v, ivl) for v, ivl in right_groups[key]],
                strategy=strategy,
                predicate=predicate,
                stats=stats,
            )
            for lvalues, rvalues, interval in pairs:
                rows.append(
                    (
                        lvalues + tuple(rvalues[p] for p in right_extra_pos),
                        interval,
                    )
                )
    else:
        pairs = interval_join(
            list(left.rows),
            list(right.rows),
            strategy=strategy,
            predicate=predicate,
            stats=stats,
        )
        for lvalues, rvalues, interval in pairs:
            rows.append(
                (lvalues + tuple(rvalues[p] for p in right_extra_pos), interval)
            )
    out._rows = rows
    return out
