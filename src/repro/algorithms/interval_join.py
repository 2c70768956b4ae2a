"""Interval joins: all overlapping pairs between two interval collections.

Footnote 6 of the paper: given sets R, S of intervals, report all pairs
``(r, s)`` with ``r ∩ s ≠ ∅``. Two strategies:

* :func:`forward_scan_join` — the forward-scan (FS) algorithm of Bouros &
  Mamoulis [26], which the paper's BASELINE uses as "the most efficient
  temporal join algorithm": both inputs sorted by start; whichever current
  interval starts first is joined against the forward run of the other
  list. ``O(n log n + m log m + K)``. Kept as the reference arm of the
  ``allen`` gate and the binary-join ablation.
* :func:`~repro.algorithms.allen.lazy_sweep_join` (registered here as
  ``"lazy-sweep"``) — the cache-efficient lazy sweep with gapless
  array-backed active sets (Piatov et al.), the default, and the only
  strategy that also answers the extended Allen predicates
  (``predicate=``).

Items are ``(payload, Interval)`` pairs; outputs carry the pair of
payloads and the intersection interval (for ``predicate="before"``, the
gap interval — see :mod:`repro.algorithms.allen`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, TypeVar

from ..core.errors import QueryError
from ..core.interval import Interval
from ..obs import NULL_TRACER, Tracer
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


JOIN_STRATEGIES = {
    "forward-scan": forward_scan_join,
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
    stats: Tracer = NULL_TRACER,
) -> List[Pair]:
    """Dispatch over the binary interval-join families.

    ``predicate`` selects an extended Allen predicate (or ``-or-`` union)
    and requires a strategy in :data:`PREDICATE_STRATEGIES`; forward-scan
    only answers the default ``"overlaps"``. Unknown strategy
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
