"""Interval joins: all overlapping pairs between two interval collections.

Footnote 6 of the paper: given sets R, S of intervals, report all pairs
``(r, s)`` with ``r ∩ s ≠ ∅``. Two implementations:

* :func:`forward_scan_join` — the forward-scan (FS) algorithm of Bouros &
  Mamoulis [26], which the paper's BASELINE uses as "the most efficient
  temporal join algorithm": both inputs sorted by start; whichever current
  interval starts first is joined against the forward run of the other
  list. ``O(n log n + m log m + K)``.
* :func:`index_nested_join` — interval-tree probing, matching footnote 6's
  ``O(|R| log |S| + K)`` query bound after ``O(|S| log |S|)``
  preprocessing. Used when one side is much smaller or pre-indexed.
* :func:`sort_merge_join` — the classic sort/merge family, kept for the
  binary-join ablation.
* :func:`~repro.algorithms.allen.lazy_sweep_join` (registered here as
  ``"lazy-sweep"``) — the cache-efficient lazy sweep with gapless
  array-backed active sets, the only strategy that also answers the
  extended Allen predicates (``predicate=``).

Items are ``(payload, Interval)`` pairs; outputs carry the pair of
payloads and the intersection interval (for ``predicate="before"``, the
gap interval — see :mod:`repro.algorithms.allen`).
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Sequence, Tuple, TypeVar

from ..core.errors import QueryError
from ..core.interval import Interval
from ..datastructures.interval_tree import StaticIntervalTree
from ..obs import ExecutionStats
from .allen import lazy_sweep_join, parse_predicate, predicate_names

A = TypeVar("A")
B = TypeVar("B")
Item = Tuple[A, Interval]
Pair = Tuple[A, B, Interval]


def forward_scan_join(
    left: Sequence[Item], right: Sequence[Item]
) -> List[Pair]:
    """All overlapping pairs via the forward-scan sweep.

    Each overlapping pair is produced exactly once, by the side whose
    interval starts first (ties go to ``left``). Inputs need not be
    sorted; sorting is done here.
    """
    ls = sorted(left, key=lambda it: (it[1].lo, it[1].hi))
    rs = sorted(right, key=lambda it: (it[1].lo, it[1].hi))
    out: List[Pair] = []
    i = j = 0
    nl, nr = len(ls), len(rs)
    while i < nl and j < nr:
        lpay, livl = ls[i]
        rpay, rivl = rs[j]
        if livl.lo <= rivl.lo:
            # left starts first: join with every right starting within it.
            hi = livl.hi
            k = j
            while k < nr:
                rp, ri = rs[k]
                if ri.lo > hi:
                    break
                out.append((lpay, rp, Interval(ri.lo, min(hi, ri.hi))))
                k += 1
            i += 1
        else:
            hi = rivl.hi
            k = i
            while k < nl:
                lp, li = ls[k]
                if li.lo > hi:
                    break
                out.append((lp, rpay, Interval(li.lo, min(hi, li.hi))))
                k += 1
            j += 1
    return out


def index_nested_join(
    left: Sequence[Item], right: Sequence[Item]
) -> List[Pair]:
    """All overlapping pairs via an interval tree on the larger side."""
    if len(left) > len(right):
        swapped = index_nested_join(right, left)
        return [(b, a, ivl) for a, b, ivl in swapped]
    tree: StaticIntervalTree = StaticIntervalTree(
        [(ivl, payload) for payload, ivl in right]
    )
    out: List[Pair] = []
    for payload, ivl in left:
        for rivl, rpayload in tree.overlapping(ivl):
            out.append((payload, rpayload, ivl.intersect(rivl)))  # type: ignore[arg-type]
    return out


def sort_merge_join(
    left: Sequence[Item], right: Sequence[Item]
) -> List[Pair]:
    """All overlapping pairs via endpoint-sorted merge with active lists.

    The classic sort/merge temporal join (Gunadhi & Segev [45] family):
    merge the two start-sorted streams; when a left item arrives, pair it
    with every *active* right item and vice versa. Each active list is a
    min-heap keyed on ``hi`` (with an arrival sequence number so payloads
    are never compared), so expiry is lazy pops of the earliest-ending
    items — amortized O(log n) per expiry instead of the former full
    list rebuild on every arrival, which made long low-selectivity
    merges quadratic. After the pops, the heap's backing list holds
    exactly the live items and is enumerated in place for pairing.
    Output-identical to :func:`forward_scan_join` as a multiset; kept as
    the representative of the sort/merge family for the binary-join
    ablation.
    """
    ls = sorted(left, key=lambda it: (it[1].lo, it[1].hi))
    rs = sorted(right, key=lambda it: (it[1].lo, it[1].hi))
    out: List[Pair] = []
    # Heap entries: (hi, seq, payload, Interval).
    active_left: List[Tuple[float, int, A, Interval]] = []
    active_right: List[Tuple[float, int, B, Interval]] = []
    seq = 0
    i = j = 0
    nl, nr = len(ls), len(rs)
    while i < nl or j < nr:
        take_left = j >= nr or (i < nl and ls[i][1].lo <= rs[j][1].lo)
        if take_left:
            payload, ivl = ls[i]
            i += 1
            lo, hi = ivl.lo, ivl.hi
            while active_right and active_right[0][0] < lo:
                heapq.heappop(active_right)
            for rhi, _, rpayload, _rivl in active_right:
                out.append((payload, rpayload, Interval(lo, min(hi, rhi))))
            heapq.heappush(active_left, (hi, seq, payload, ivl))
        else:
            payload, ivl = rs[j]
            j += 1
            lo, hi = ivl.lo, ivl.hi
            while active_left and active_left[0][0] < lo:
                heapq.heappop(active_left)
            for lhi, _, lpayload, _livl in active_left:
                out.append((lpayload, payload, Interval(lo, min(hi, lhi))))
            heapq.heappush(active_right, (hi, seq, payload, ivl))
        seq += 1
    return out


JOIN_STRATEGIES = {
    "forward-scan": forward_scan_join,
    "index": index_nested_join,
    "sort-merge": sort_merge_join,
    "lazy-sweep": lazy_sweep_join,
}

#: Strategies that answer predicates beyond "overlaps".
PREDICATE_STRATEGIES = frozenset({"lazy-sweep"})

#: The repo-wide default binary strategy (BASELINE, HYBRID residuals,
#: binary_temporal_join). Flipped from "forward-scan" to the lazy sweep
#: after the ``allen`` suite of BENCH_gates.json proved the ≥1.3x win on
#: the N=10k overlaps workload; the output pair multiset is identical.
DEFAULT_STRATEGY = "lazy-sweep"


def interval_join(
    left: Sequence[Item],
    right: Sequence[Item],
    strategy: str = DEFAULT_STRATEGY,
    predicate: str = "overlaps",
    stats: Optional[ExecutionStats] = None,
) -> List[Pair]:
    """Dispatch over the binary interval-join families.

    ``predicate`` selects an extended Allen predicate (or ``-or-`` union)
    and requires a strategy in :data:`PREDICATE_STRATEGIES`; the classic
    strategies only answer the default ``"overlaps"``. Unknown strategy
    or predicate names raise :class:`QueryError` listing the valid ones.
    """
    try:
        fn = JOIN_STRATEGIES[strategy]
    except KeyError:
        raise QueryError(
            f"unknown interval join strategy {strategy!r}; "
            f"choose from {sorted(JOIN_STRATEGIES)}"
        ) from None
    atoms = parse_predicate(predicate)
    if strategy in PREDICATE_STRATEGIES:
        return fn(left, right, predicate=predicate, stats=stats)
    if atoms != ("overlaps",):
        raise QueryError(
            f"strategy {strategy!r} only answers predicate 'overlaps'; "
            f"use one of {sorted(PREDICATE_STRATEGIES)} for "
            f"{predicate!r} (atomic predicates: {predicate_names()})"
        )
    return fn(left, right)


def self_overlap_pairs(items: Sequence[Item]) -> List[Pair]:
    """All unordered overlapping pairs within one collection.

    Convenience for workload statistics; pairs are reported once with the
    earlier-starting item first.
    """
    ordered = sorted(items, key=lambda it: (it[1].lo, it[1].hi))
    out: List[Pair] = []
    for idx, (payload, ivl) in enumerate(ordered):
        for other, oivl in ordered[idx + 1 :]:
            if oivl.lo > ivl.hi:
                break
            out.append((payload, other, Interval(oivl.lo, min(ivl.hi, oivl.hi))))
    return out
