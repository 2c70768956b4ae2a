"""Columnar ingest/egress for the kernel engine.

This module is the *only* place in :mod:`repro.kernels` that touches
``(values, Interval)`` object rows (the ``kernel-no-object-rows`` lint
rule enforces it). It converts a database into a :class:`KernelColumns`
bundle once per ``temporal_join`` call — or once per *database* via
:func:`repro.kernels.prepared.prepare`:

* **Value interning** — every attribute value is mapped to a dense int
  per attribute domain, in deterministic first-appearance order
  (database iteration order, the same order that breaks event
  ties). Interning runs column-wise: per relation the value tuples are
  transposed, each column's new values come from ``dict.fromkeys`` and
  its codes from one ``map`` over the domain table, and the code
  columns are zipped back into row tuples. Each domain still sees its
  values in (relation, row) order, so the codes are those of a
  row-by-row loop. The inverse tables live in
  :attr:`KernelColumns.domains` and restore the original objects at
  result emission, so kernel output is indistinguishable from the
  object path.
* **Rank-space endpoints** — interval endpoints are rank-compressed
  into ``array('q')`` int arrays. Ranking is order-preserving, so
  intersection (max of los, min of his) and emptiness checks are exact
  in rank space; ``rank_times`` maps ranks back to the exact original
  endpoint values (``±inf`` participate as ordinary values).
* **Pre-sorted event codes** — the Algorithm 1 event list is flattened
  into one sorted list of ints, ``(rank * 2 + kind) * n_rows + row``:
  the encoding of :mod:`repro.algorithms.events` that every TIMEFIRST
  route sweeps. The codes are built and sorted as one int64 numpy
  array, which bounds them by ``(2 * max_rank + 2) * n_rows < 2**63``
  (checked).
  Sorting happens once per ingest (``kernel.sort_calls``); derived
  columns — shard subsets (:meth:`KernelColumns.subset`) and relation
  restrictions (:meth:`KernelColumns.restrict`) — *filter* the parent's
  sorted stream under a monotone rank/row remap instead of re-sorting,
  so the sort count stays at one however many queries sweep the same
  prepared columns.
* **τ/2 shrink in rank space** — the cold τ > 0 route
  (:func:`build_shrunk_columns`) and the prepared τ-views
  (:func:`shrink_columns`) share :func:`_shrink_ranks`: the unshrunk
  endpoints are ranked, ``lo + τ/2`` and ``hi - τ/2`` are computed once
  per distinct rank, rows are remapped and dropped with int64 numpy
  work, and only the cold route's surviving rows are interned. The
  event codes are sorted once, after the shrink.

Emission intervals are **not** pickled: :func:`build_columns` seeds the
per-process cache behind :meth:`KernelColumns.intervals` with the ingest
rows' own intervals; every other column set (shrunk, derived or
unpickled) builds one interval per distinct ``(lo_rank, hi_rank)`` pair
on demand and shares it between rows. The cache is excluded from
pickling, so shard columns ship to spawn-based worker processes without
a single object row.
"""

from __future__ import annotations

import heapq
import math
from array import array
from itertools import compress, groupby
from operator import attrgetter, itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.events import _rank_endpoints, _sorted_event_codes
from ..core.durability import check_threshold, shrink_database
from ..core.errors import InvariantError
from ..core.interval import Interval, Number
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..core.timeline import Timeline, timeline_from_sorted_events
from ..obs import NULL_TRACER, ExecutionStats

Domains = Dict[str, List[object]]


class KernelColumns:
    """One database, flattened into interned parallel arrays.

    Row ids follow database iteration order (relation by relation) and
    ``event_codes`` is the shared encoding of
    :mod:`repro.algorithms.events`, so the kernel sweep replays the
    object sweep's event order bit for bit.
    """

    __slots__ = (
        "relations",
        "row_relation",
        "row_values",
        "row_lo",
        "row_hi",
        "rank_times",
        "event_codes",
        "domains",
        "n_rows",
        "_interval_cache",
    )

    #: Pickled fields — everything except the lazy interval cache, which
    #: each process rebuilds on first use. Keeping object rows out of
    #: the payload is the spawn contract the pickle-inspection test pins.
    _STATE = (
        "relations",
        "row_relation",
        "row_values",
        "row_lo",
        "row_hi",
        "rank_times",
        "event_codes",
        "domains",
        "n_rows",
    )

    def __init__(
        self,
        relations: Tuple[str, ...],
        row_relation: List[str],
        row_values: List[Tuple[int, ...]],
        row_lo: array,
        row_hi: array,
        rank_times: List[Number],
        event_codes: List[int],
        domains: Domains,
    ) -> None:
        self.relations = relations
        self.row_relation = row_relation
        self.row_values = row_values
        self.row_lo = row_lo
        self.row_hi = row_hi
        self.rank_times = rank_times
        self.event_codes = event_codes
        self.domains = domains
        self.n_rows = len(row_values)
        self._interval_cache: Optional[List[Interval]] = None

    # Explicit state plumbing: the interval cache must never cross a
    # process boundary (its Interval objects are exactly the payload the
    # docstring promises is absent), so pickling is restricted to
    # ``_STATE`` and the cache is re-initialised empty on load.
    def __getstate__(self):
        return tuple(getattr(self, name) for name in self._STATE)

    def __setstate__(self, state) -> None:
        for name, value in zip(self._STATE, state):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_interval_cache", None)

    # ------------------------------------------------------------------
    def intervals(self) -> List[Interval]:
        """Per-row emission intervals.

        Columns from :func:`build_columns` hold the ingest rows' own
        intervals; others reconstruct them from rank space on first use,
        building one :class:`Interval` per distinct ``(lo_rank,
        hi_rank)`` pair and sharing it between the rows that have that
        pair (intervals are frozen, so sharing is safe). ``rank_times``
        round-trips endpoints exactly (it stores the original values),
        so the reconstructed intervals are value-identical to the source
        rows'. The list is cached per process; the cache never travels
        in the pickle payload.
        """
        cached = self._interval_cache
        if cached is None:
            cached = []
            if self.n_rows:
                rank_times = self.rank_times
                n_ranks = len(rank_times)
                # Pair key lo * n_ranks + hi < n_ranks ** 2 <= (2 * n) ** 2,
                # well inside int64 wherever the event codes are.
                keys = np.frombuffer(self.row_lo, dtype=np.int64) * n_ranks
                keys += np.frombuffer(self.row_hi, dtype=np.int64)
                pairs, which = np.unique(keys, return_inverse=True)
                # Endpoints of validated intervals with lo rank <= hi
                # rank: the checked constructor could only re-confirm it.
                fast = Interval._fast
                built = [
                    fast(rank_times[key // n_ranks], rank_times[key % n_ranks])
                    for key in pairs.tolist()
                ]
                cached = list(map(built.__getitem__, which.tolist()))
            self._interval_cache = cached
        return cached

    def subset(self, row_ids: Sequence[int]) -> "KernelColumns":
        """Columns restricted to ``row_ids``, re-ranked locally.

        Used to build shard payloads: each shard gets its own dense row
        ids, local endpoint ranks and pre-sorted event codes, while the
        de-intern ``domains`` tables are shared by reference (they are
        read-only after construction). ``row_ids`` (ints or an int64
        array) must be strictly increasing — local row order then
        preserves the parent's row-id tie-break order, which lets
        the local event codes be *derived* from the parent's sorted
        stream (a filter under a monotone remap) instead of re-sorted.
        The derivation is int64 numpy work over the parent's arrays.
        """
        return self._subset(row_ids, self.relations)

    def restrict(self, relations: Sequence[str]) -> "KernelColumns":
        """Columns restricted to the rows of the named relations.

        The multi-query path: one prepared database, many queries each
        touching a subset of its relations. Relation order follows the
        parent columns (ingest order), never the argument order, so row
        ids keep the parent's row-id tie-break order.
        """
        keep = frozenset(relations)
        missing = keep - set(self.relations)
        if missing:
            raise InvariantError(
                f"cannot restrict columns to unknown relations {sorted(missing)}"
            )
        if keep == set(self.relations):
            return self
        row_relation = self.row_relation
        row_ids = [
            rid for rid in range(self.n_rows) if row_relation[rid] in keep
        ]
        kept = tuple(name for name in self.relations if name in keep)
        return self._subset(row_ids, kept)

    def _subset(
        self, row_ids: Sequence[int], relations: Tuple[str, ...]
    ) -> "KernelColumns":
        ids = np.asarray(row_ids, dtype=np.int64)
        if ids.size > 1 and bool((ids[1:] <= ids[:-1]).any()):
            raise InvariantError(
                "subset row_ids must be strictly increasing (parent row order)"
            )
        k = int(ids.size)
        id_list = ids.tolist()
        row_values = list(map(self.row_values.__getitem__, id_list))
        row_relation = list(map(self.row_relation.__getitem__, id_list))
        del id_list
        lo = np.frombuffer(self.row_lo, dtype=np.int64)[ids]
        hi = np.frombuffer(self.row_hi, dtype=np.int64)[ids]
        # Local rank of every parent rank a kept row uses: the kept
        # ranks, renumbered densely in parent order (a monotone remap).
        used = np.zeros(len(self.rank_times), dtype=bool)
        used[lo] = True
        used[hi] = True
        remap = np.cumsum(used, dtype=np.int64) - 1
        kept_ranks = np.flatnonzero(used).tolist()
        del used
        rank_times = list(map(self.rank_times.__getitem__, kept_ranks))
        del kept_ranks
        row_lo = array("q", remap[lo].tobytes())
        row_hi = array("q", remap[hi].tobytes())
        del lo, hi
        event_codes = self._derive_event_codes(ids, remap) if k else []
        return KernelColumns(
            relations=relations,
            row_relation=row_relation,
            row_values=row_values,
            row_lo=row_lo,
            row_hi=row_hi,
            rank_times=rank_times,
            event_codes=event_codes,
            domains=self.domains,
        )

    def _derive_event_codes(self, ids: np.ndarray, remap: np.ndarray) -> List[int]:
        """Filter the parent's sorted event stream down to rows ``ids``.

        ``remap`` maps each parent rank to its local rank. Both remaps
        are monotone — local ranks preserve parent rank order, local row
        ids preserve parent row-id order (``ids`` ascending) — so the
        filtered stream is already sorted in the local ``(rank, kind,
        row)`` code order. No sort happens here; that is what keeps
        ``kernel.sort_calls`` at one per ingest. Local codes are bounded
        by the parent's, so int64 holds them.
        """
        n = self.n_rows
        k = int(ids.size)
        local_of = np.full(n, -1, dtype=np.int64)
        local_of[ids] = np.arange(k, dtype=np.int64)
        codes = np.array(self.event_codes, dtype=np.int64)
        local = local_of[codes % n]
        del local_of
        kept = local >= 0
        rank_kind = codes[kept] // n  # parent rank * 2 + kind
        del codes
        local = local[kept]
        del kept
        local_codes = ((remap[rank_kind >> 1] << 1) | (rank_kind & 1)) * k + local
        return local_codes.tolist()

    def timeline(self) -> Timeline:
        """Concurrency timeline straight from the sorted event arrays.

        The event codes are already ordered with INSERTs before EXPIREs
        at equal times — exactly the ``starts before ends`` order
        :func:`repro.core.timeline.concurrency_timeline` sorts into —
        so no re-sweep of the raw intervals is needed.
        """
        n = self.n_rows
        if n == 0:
            return timeline_from_sorted_events(())
        rank_times = self.rank_times
        return timeline_from_sorted_events(
            (rank_times[code // (2 * n)], 1 if (code // n) % 2 == 0 else -1)
            for code in self.event_codes
        )


_NEG_INF = float("-inf")
_POS_INF = float("inf")
_getitem = list.__getitem__
_lo_of = attrgetter("lo")
_hi_of = attrgetter("hi")

#: Endpoint types whose τ/2 images depend on the value alone: with a
#: float ``half``, ``1 + half``, ``1.0 + half`` and ``True + half`` are
#: one float, and the infinities (floats) are fixed points.
_PLAIN_ENDPOINTS = frozenset({int, float, bool})

def build_columns(
    database: Mapping[str, TemporalRelation],
    stats: Optional[ExecutionStats] = None,
) -> KernelColumns:
    """Intern, rank-compress and event-sort ``database`` — once.

    With ``stats`` attached, records ``kernel.rows``,
    ``kernel.interned_values`` (total distinct values across attribute
    domains), ``kernel.distinct_endpoints``, ``kernel.sort_calls``
    (always 1 per call — the single Algorithm 1 line-1 sort) and the
    ``phase.kernel.intern`` / ``phase.kernel.rank`` timers, all nested
    under the object path's ``phase.events`` for comparability.
    """
    tracer = NULL_TRACER if stats is None else stats
    with tracer.timer("phase.events"):
        row_intervals = _row_intervals(database)
        with tracer.timer("phase.kernel.rank"):
            ranks = _rank_endpoints(
                list(map(_lo_of, row_intervals)), list(map(_hi_of, row_intervals))
            )
        columns = _ingest(
            database,
            ((name, database[name].attrs, database[name].rows) for name in database),
            *ranks,
            tracer,
        )
    # The ingest rows' own intervals are the emission intervals: seed
    # this process's cache with them instead of rebuilding from ranks.
    columns._interval_cache = row_intervals
    return columns


def build_shrunk_columns(
    database: Mapping[str, TemporalRelation],
    tau: Number,
    stats: Optional[ExecutionStats] = None,
) -> KernelColumns:
    """``build_columns(shrink_database(database, tau))``, shrunk in rank space.

    The cold kernel route's ingest. Rather than build one shrunk
    :class:`Interval` per row and intern the shrunk database, it ranks
    the *unshrunk* endpoints, shrinks once per distinct endpoint
    (:func:`_shrink_ranks`), drops the vanished rows in rank space, and
    only then interns the surviving rows' values — so a dropped row
    never supplies a domain representative, exactly as in the shrunk
    database. Every field equals the object composition's: codes and
    domains, row order, ``row_lo``/``row_hi``, ``rank_times`` values and
    types, event codes. Emission intervals are built lazily by
    :meth:`KernelColumns.intervals`, once per distinct endpoint pair.

    Images computed once per distinct endpoint are exact when equal
    endpoints have identical images, which holds for a float ``τ/2``
    over ``int``/``float``/``bool`` endpoints (every finite image is the
    same float, infinities are fixed points). Any other input — a
    ``Fraction`` τ, numpy scalars as endpoints — takes the object shrink
    (:func:`~repro.core.durability.shrink_database`), which computes
    each row's own image.

    ``stats`` records what :func:`build_columns` records for the shrunk
    database, ``kernel.shrink_dropped`` (rows the shrink removed, for
    ``tau > 0``) and the ``phase.shrink`` timer around the shrink.
    """
    if tau == 0:
        return build_columns(database, stats)
    tracer = NULL_TRACER if stats is None else stats
    with tracer.timer("phase.shrink"):
        check_threshold(tau)
        half = tau / 2
        row_intervals = _row_intervals(database)
        los = list(map(_lo_of, row_intervals))
        his = list(map(_hi_of, row_intervals))
        del row_intervals
        plain = (
            type(half) is float
            and _PLAIN_ENDPOINTS.issuperset(map(type, los))
            and _PLAIN_ENDPOINTS.issuperset(map(type, his))
        )
        if plain:
            keep, *ranks = _shrink_ranks(*_rank_endpoints(los, his), half)
        else:
            shrunk_db = shrink_database(database, tau)
    if plain:
        with tracer.timer("phase.events"):
            columns = _ingest(
                database, _surviving_rows(database, keep.tolist()), *ranks, tracer
            )
    else:
        columns = build_columns(shrunk_db, stats)
    tracer.incr("kernel.shrink_dropped", len(los) - columns.n_rows)
    return columns


def _ingest(
    database: Mapping[str, TemporalRelation],
    relations,
    rank_times: List[Number],
    row_lo: array,
    row_hi: array,
    tracer,
) -> KernelColumns:
    """Intern ``relations`` and sort the event codes of ranked rows."""
    with tracer.timer("phase.kernel.intern"):
        domains, row_relation, row_values = _intern_columns(relations)
    with tracer.timer("phase.kernel.rank"):
        event_codes = _sorted_event_codes(row_lo, row_hi)
    tracer.incr("kernel.rows", len(row_values))
    tracer.incr("kernel.interned_values", sum(map(len, domains.values())))
    tracer.incr("kernel.distinct_endpoints", len(rank_times))
    tracer.incr("kernel.sort_calls")
    return KernelColumns(
        relations=tuple(database),
        row_relation=row_relation,
        row_values=row_values,
        row_lo=row_lo,
        row_hi=row_hi,
        rank_times=rank_times,
        event_codes=event_codes,
        domains=domains,
    )


def _surviving_rows(database: Mapping[str, TemporalRelation], flags: List[bool]):
    """``(name, attrs, rows)`` per relation, keeping rows whose flag is set."""
    start = 0
    for name in database:
        relation = database[name]
        stop = start + len(relation.rows)
        yield name, relation.attrs, list(compress(relation.rows, flags[start:stop]))
        start = stop


def _row_intervals(database: Mapping[str, TemporalRelation]) -> List[Interval]:
    """Every row's interval, in database (row id) order."""
    out: List[Interval] = []
    for name in database:
        out.extend(map(itemgetter(1), database[name].rows))
    return out


def _intern_columns(relations):
    """Intern ``(name, attrs, rows)`` relations one attribute column at a time.

    Returns ``(domains, row_relation, row_values)``. Each domain sees its
    values in (relation, row) order, exactly as a row-by-row loop would,
    so codes and first-appearance order match it; values that compare
    equal (``1``, ``1.0``, ``True``) share the slot of the first one
    seen. Empty relations still register their domains.
    """
    domains: Domains = {}
    row_relation: List[str] = []
    row_values: List[Tuple[int, ...]] = []
    interners: Dict[str, Dict[object, int]] = {}
    for name, attrs, rows in relations:
        tables = [interners.setdefault(a, {}) for a in attrs]
        rel_domains = [domains.setdefault(a, []) for a in attrs]
        if not rows:
            continue
        # Transpose with itemgetter rather than ``zip(*rows)``, which
        # allocates one iterator per row and wakes the cyclic GC.
        value_tuples = list(map(itemgetter(0), rows))
        code_columns = []
        for position, (table, domain) in enumerate(zip(tables, rel_domains)):
            column = list(map(itemgetter(position), value_tuples))
            fresh = [v for v in dict.fromkeys(column) if v not in table]
            table.update(zip(fresh, range(len(domain), len(domain) + len(fresh))))
            domain.extend(fresh)
            code_columns.append(map(table.__getitem__, column))
        row_values.extend(zip(*code_columns))
        row_relation.extend([name] * len(rows))
    return domains, row_relation, row_values


def _shrink_ranks(
    rank_times: List[Number], row_lo: array, row_hi: array, half: Number
) -> Tuple[np.ndarray, List[Number], array, array]:
    """The τ/2 shrink in rank space: arithmetic once per distinct endpoint.

    Computes ``t + half`` and ``t - half`` (infinite ``t`` fixed, as in
    :meth:`TemporalRelation.shrink`) once per rank. Both images are
    monotone in rank order, so sorting their concatenation is a merge
    of two sorted runs; it compares Python numbers, not float64, so ints
    above 2**53 stay exact. Rows are remapped with int64 ``take``, a row
    whose new lo rank exceeds its new hi rank vanishes, and only images
    a surviving row uses become ranks.

    Returns ``(keep, rank_times, row_lo, row_hi)``: the boolean survivor
    mask over the input rows, then the survivors' shrunk rank space.
    """
    isinf = math.isinf
    lo_image = [t if isinf(t) else t + half for t in rank_times]
    hi_image = [t if isinf(t) else t - half for t in rank_times]
    merged = list(dict.fromkeys(sorted(lo_image + hi_image)))
    rank_of = dict(zip(merged, range(len(merged)))).__getitem__
    n_ranks = len(rank_times)
    lo = np.fromiter(map(rank_of, lo_image), dtype=np.int64, count=n_ranks).take(
        np.frombuffer(row_lo, dtype=np.int64)
    )
    hi = np.fromiter(map(rank_of, hi_image), dtype=np.int64, count=n_ranks).take(
        np.frombuffer(row_hi, dtype=np.int64)
    )
    keep = lo <= hi
    lo = lo[keep]
    hi = hi[keep]
    used = np.zeros(len(merged), dtype=bool)
    used[lo] = True
    used[hi] = True
    remap = np.cumsum(used, dtype=np.int64) - 1
    kept_times = list(map(merged.__getitem__, np.flatnonzero(used).tolist()))
    return (
        keep,
        kept_times,
        array("q", remap.take(lo).tobytes()),
        array("q", remap.take(hi).tobytes()),
    )


def shrink_columns(
    columns: KernelColumns,
    tau: Number,
    stats: Optional[ExecutionStats] = None,
) -> KernelColumns:
    """Derive the τ/2-shrunk columns of ``columns`` — in rank space.

    The prepared engine's τ-view: the same :func:`_shrink_ranks` as the
    cold route, so rows, their order, ``row_lo``/``row_hi``,
    ``rank_times`` and the event codes equal those of
    ``build_columns(shrink_database(database, tau))``. Two differences
    are inherent to starting from columns: images are taken from each
    rank's representative, and the view keeps the base columns' interned
    codes and ``domains`` (values seen only in dropped rows keep their
    slots), which de-intern to the same values. The shrunk endpoints are
    new values, so the view sorts its own event codes — one
    ``kernel.sort_calls`` per τ, cached by the prepared engine. A NaN or
    negative ``tau`` raises :class:`~repro.core.errors.QueryError`.
    """
    tracer = NULL_TRACER if stats is None else stats
    with tracer.timer("phase.shrink"):
        check_threshold(tau)
        if tau == 0:
            return columns
        keep, rank_times, row_lo, row_hi = _shrink_ranks(
            columns.rank_times, columns.row_lo, columns.row_hi, tau / 2
        )
    flags = keep.tolist()
    event_codes = _sorted_event_codes(row_lo, row_hi)
    tracer.incr("kernel.sort_calls")
    tracer.incr("kernel.shrink_dropped", columns.n_rows - len(row_lo))
    return KernelColumns(
        relations=columns.relations,
        row_relation=list(compress(columns.row_relation, flags)),
        row_values=list(compress(columns.row_values, flags)),
        row_lo=row_lo,
        row_hi=row_hi,
        rank_times=rank_times,
        event_codes=event_codes,
        domains=columns.domains,
    )


def decode_values(
    domains: Domains, attrs: Sequence[str], values: Sequence[int]
) -> Tuple[object, ...]:
    """One interned tuple laid out in ``attrs``, mapped back to its values."""
    return tuple(domains[attr][code] for attr, code in zip(attrs, values))


def deintern_results(domains: Domains, results: JoinResultSet) -> JoinResultSet:
    """Map interned result rows back to the original attribute values.

    Values that compare equal share one interned slot (first-seen
    representative), mirroring the dict semantics of the object-path
    states, so normalized result equality is preserved exactly.
    """
    tables = [domains[a] for a in results.attrs]
    out = JoinResultSet(results.attrs)
    append = out.rows.append
    for values, interval in results.rows:
        append((tuple(map(_getitem, tables, values)), interval))
    return out


def deintern_expand(
    domains: Domains, results: JoinResultSet, half: Number
) -> JoinResultSet:
    """De-intern ``results`` and undo the τ/2 shrink in one pass.

    Row for row equal to ``deintern_results(domains, results)
    .expand_intervals(half)`` — values, endpoints and endpoint types —
    but each output row and its interval are built once, with
    :meth:`JoinResultSet.expand_intervals`'s arithmetic (``lo - half``,
    ``hi + half``, infinite endpoints fixed). Any ``half`` outside
    ``(0, inf)`` is that composition itself: at 0 it reuses the sweep's
    intervals, and a negative or infinite ``half`` gets the checked
    per-row expansion.
    """
    if not 0 < half < _POS_INF:
        return deintern_results(domains, results).expand_intervals(half)
    tables = [domains[a] for a in results.attrs]
    out = JoinResultSet(results.attrs)
    append = out.rows.append
    new = object.__new__
    put = object.__setattr__
    for values, interval in results.rows:
        lo = interval.lo
        hi = interval.hi
        if lo > _NEG_INF:
            lo = lo - half
        if hi < _POS_INF:
            hi = hi + half
        # Interval._fast inlined: expansion keeps lo <= hi.
        expanded = new(Interval)
        put(expanded, "lo", lo)
        put(expanded, "hi", hi)
        append((tuple(map(_getitem, tables, values)), expanded))
    return out


def shard_row_ids(
    columns: KernelColumns,
    cuts: Sequence[Number],
    tau: Number = 0,
) -> List[List[int]]:
    """Assign every row to the shards its *original* interval overlaps.

    The columns hold τ/2-shrunk intervals (the kernel driver shrinks
    while building them); ownership in :mod:`repro.parallel` is evaluated
    on *expanded* result intervals, so assignment must expand each row
    interval back by τ/2 first — a result's every constituent then
    reaches the shard that owns the result's endpoint. Infinite
    endpoints are fixed points of the expansion (IEEE ``±inf ± x``).
    Endpoints come straight from ``rank_times`` — no object rows.
    """
    import bisect

    n_shards = len(cuts) + 1
    shards: List[List[int]] = [[] for _ in range(n_shards)]
    half = tau / 2 if tau else 0
    rank_times = columns.rank_times
    row_lo = columns.row_lo
    row_hi = columns.row_hi
    right = bisect.bisect_right
    for rid in range(columns.n_rows):
        first = right(cuts, rank_times[row_lo[rid]] - half)
        last = right(cuts, rank_times[row_hi[rid]] + half)
        for shard in range(first, last + 1):
            shards[shard].append(rid)
    return shards


def key_shard_row_ids(
    columns: KernelColumns,
    positions: Mapping[str, int],
    shards: int,
) -> Optional[List[np.ndarray]]:
    """Assign every row to one shard by its interned code of one attribute.

    ``positions`` gives, per relation, where the key attribute sits in
    that relation's rows. The attribute must occur in every relation of
    the query: a join result then binds it to one value, so all of the
    result's constituent rows share that value's shard and the shards
    are disjoint in results — no row is copied.

    A key's weight is its row count plus its output bound
    ``Π_r rows_r(v)`` (with the key fixed, the results are a subset of
    the product of the per-relation groups); keys are placed
    largest-weight-first on the lightest shard (LPT). Returns ``None``
    when one key holds more than ``1/shards`` of the rows, since no key
    assignment can then balance the shards. Each shard's row ids
    ascend, as :meth:`KernelColumns.subset` requires; with at least one
    row, every shard is non-empty.
    """
    n = columns.n_rows
    if n == 0:
        return [np.empty(0, dtype=np.int64)]
    keys = np.empty(n, dtype=np.int64)
    blocks: List[Tuple[str, int, int]] = []
    start = 0
    # Rows of one relation are contiguous (ingest order).
    for name, block in groupby(columns.row_relation):
        count = sum(1 for _ in block)
        keys[start:start + count] = np.fromiter(
            map(itemgetter(positions[name]), columns.row_values[start:start + count]),
            dtype=np.int64,
            count=count,
        )
        blocks.append((name, start, start + count))
        start += count
    n_keys = int(keys.max()) + 1
    # One row per relation of the query; an empty relation stays zero,
    # which zeroes every key's output bound.
    slot = {name: i for i, name in enumerate(positions)}
    counts = np.zeros((len(slot), n_keys), dtype=np.int64)
    for name, lo, hi in blocks:
        counts[slot[name]] = np.bincount(keys[lo:hi], minlength=n_keys)
    rows = counts.sum(axis=0)
    if int(rows.max()) * shards > n:
        return None
    # float64: the product of group sizes can leave int64.
    weight = rows + np.prod(counts.astype(np.float64), axis=0)
    del counts
    order = np.argsort(-weight, kind="stable")
    order = order[rows[order] > 0]
    shard_of = np.zeros(n_keys, dtype=np.int64)
    loads = [(0.0, shard) for shard in range(shards)]
    for key, w in zip(order.tolist(), weight[order].tolist()):
        load, shard = heapq.heappop(loads)
        shard_of[key] = shard
        heapq.heappush(loads, (load + w, shard))
    row_shard = shard_of[keys]
    return [np.flatnonzero(row_shard == shard) for shard in range(shards)]
