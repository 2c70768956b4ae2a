"""Online (streaming) temporal joins.

Section 3.1 observes that the temporal join "reduces to a dynamic
instance of natural join, where we maintain the join result over time as
tuples are inserted and deleted according to their valid intervals". The
offline TIMEFIRST sweep replays that dynamic instance from sorted
endpoints; this module exposes the dynamic instance itself.

:class:`OnlineTemporalJoin` ingests a *time-ordered* stream of tuple
arrivals (each with its valid interval) and emits every join result
exactly once, as soon as it can be finalized — i.e. at the smallest right
endpoint among its constituent tuples, just like the offline sweep. The
producer only needs to respect arrival order by interval start; expiry
is handled internally, so this is a one-pass, bounded-state operator
suitable for feeds whose past cannot be revisited.

Internally the operator reuses the sweep states of
:mod:`repro.algorithms.hierarchical` and
:mod:`repro.algorithms.generic_state` and keeps a min-heap of pending
expirations; :meth:`advance_to` drains every expiration up to a
watermark, and :meth:`finish` flushes the remainder.

Telemetry follows the offline contract: pass ``stats=`` and the operator
records the same ``sweep.*`` counters as the offline sweep. The offline
routes derive them from the sorted event codes after
:func:`repro.algorithms.timefirst.drive`'s loop; this operator counts
them per arrival and per expiration, and after :meth:`finish` on an
endpoint-ordered replay of a database the two match exactly
(``sweep.events``, ``sweep.inserts``, ``sweep.enumerate_calls``,
``sweep.active_peak``, ``results``). The underlying state adds its
``hier.*`` / ``ghd.*`` counters. Online-only events get the ``online.*`` prefix:
``online.clamped`` (non-strict out-of-order arrivals, with the
``online.clamp_reason`` note so degradation is never silent) and
``online.watermark_regressions`` (non-monotone :meth:`advance_to`
calls, which are no-ops).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Mapping, Optional, Tuple

from ..core.errors import QueryError
from ..core.interval import Interval, IntervalLike, Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet, ResultRow
from ..datastructures.heap import AddressableHeap
from ..obs import ExecutionStats

Values = Tuple[object, ...]


class OnlineTemporalJoin:
    """A push-based temporal join operator over an endpoint-ordered stream.

    Parameters
    ----------
    query:
        The join query; hierarchical queries get the §3.2 structure,
        everything else the GHD state.
    strict:
        When true (default), out-of-order arrivals (an interval starting
        before the watermark) raise :class:`QueryError`; when false they
        are clamped to the current watermark, trading exactness for
        robustness, which is the usual streaming compromise. Every clamp
        is recorded (``online.clamped`` counter and the
        ``online.clamp_reason`` note) when ``stats`` is attached.
    stats:
        Optional :class:`~repro.obs.ExecutionStats`. With ``None`` (the
        default) the pre-telemetry code path runs unchanged.

    The *watermark* is the largest instant known to be settled: the
    maximum of every drained expiration endpoint and every watermark
    declared via :meth:`advance_to`. Declaring a watermark is a promise
    that no future arrival starts before it; strict mode holds the
    producer to that promise.
    """

    def __init__(
        self,
        query: JoinQuery,
        strict: bool = True,
        stats: Optional[ExecutionStats] = None,
    ) -> None:
        from .generic_state import GenericGHDState
        from .hierarchical import HierarchicalState

        self.query = query
        self.strict = strict
        self._stats = stats
        if query.is_hierarchical:
            self._state = HierarchicalState(query, stats=stats)
        else:
            self._state = GenericGHDState(query, stats=stats)
        self._pending: AddressableHeap = AddressableHeap()
        self._watermark: Optional[Number] = None
        self._emitted = JoinResultSet(query.attrs)
        self._emit_cursor = 0
        self._seq = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def watermark(self) -> Optional[Number]:
        """Largest settled instant: drained expirations and declarations."""
        return self._watermark

    @property
    def active_count(self) -> int:
        """Tuples currently alive inside the operator (bounded state)."""
        return len(self._pending)

    def insert(
        self, relation: str, values: Values, interval: IntervalLike
    ) -> List[ResultRow]:
        """Ingest one tuple; returns results finalized by this arrival.

        Arrivals must be ordered by interval start (the stream's event
        time). Before the tuple is inserted, every pending expiration
        strictly before its start is drained — those results can never
        change again.
        """
        if self._closed:
            raise QueryError("insert after finish() on an online join")
        iv = Interval.coerce(interval)
        stats = self._stats
        if self._watermark is not None and iv.lo < self._watermark:
            if self.strict:
                raise QueryError(
                    f"out-of-order arrival: start {iv.lo} precedes the "
                    f"watermark {self._watermark}"
                )
            clamped = Interval(self._watermark, max(self._watermark, iv.hi))
            if stats is not None:
                stats.incr("online.clamped")
                stats.note(
                    "online.clamp_reason",
                    f"out-of-order arrival {relation}{values} {iv} clamped "
                    f"to {clamped} at watermark {self._watermark}",
                )
            iv = clamped
        self._drain(iv.lo, inclusive=False)
        self._state.insert(relation, values, iv)
        self._pending.push((iv.hi, self._seq), (relation, values, iv))
        self._seq += 1
        if stats is not None:
            stats.incr("sweep.events")
            stats.incr("sweep.inserts")
            stats.peak("sweep.active_peak", len(self._pending))
        return self._collect()

    def advance_to(self, watermark: Number) -> List[ResultRow]:
        """Declare that no future arrival starts before ``watermark``.

        Drains every expiration *strictly* before the watermark (a future
        arrival starting exactly at the watermark may still join tuples
        expiring there — closed intervals touch) and returns the results
        finalized by them. A non-monotone call (a watermark at or below
        the current one) is a no-op: nothing new can be strictly below an
        already-settled instant, and the watermark never regresses.
        """
        if self._closed:
            raise QueryError("advance_to after finish() on an online join")
        if self._watermark is not None and watermark <= self._watermark:
            if self._stats is not None and watermark < self._watermark:
                self._stats.incr("online.watermark_regressions")
            return self._collect()
        self._drain(watermark, inclusive=False)
        if self._watermark is None or watermark > self._watermark:
            self._watermark = watermark
        return self._collect()

    def finish(self) -> List[ResultRow]:
        """Flush all remaining state; the operator is closed afterwards.

        Idempotent: a second call returns the empty list and re-emits
        nothing.
        """
        if not self._closed:
            self._drain(float("inf"), inclusive=True)
            self._closed = True
        return self._collect()

    def results(self) -> JoinResultSet:
        """Everything emitted so far (shared, do not mutate)."""
        return self._emitted

    # ------------------------------------------------------------------
    def _drain(self, until: Number, inclusive: bool) -> None:
        stats = self._stats
        while self._pending:
            (hi, _), payload = self._pending.peek()
            if hi > until or (hi == until and not inclusive):
                break
            self._pending.pop()
            relation, values, iv = payload
            before = len(self._emitted)
            self._state.enumerate_results(relation, values, iv, self._emitted)
            self._state.delete(relation, values, iv)
            self._watermark = hi if self._watermark is None else max(self._watermark, hi)
            if stats is not None:
                stats.incr("sweep.events")
                stats.incr("sweep.enumerate_calls")
                stats.incr("results", len(self._emitted) - before)

    def _collect(self) -> List[ResultRow]:
        new = self._emitted.rows[self._emit_cursor :]
        self._emit_cursor = len(self._emitted.rows)
        return list(new)


def stream_temporal_join(
    query: JoinQuery,
    arrivals: Iterable[Tuple[str, Values, IntervalLike]],
    strict: bool = True,
    stats: Optional[ExecutionStats] = None,
) -> Iterator[ResultRow]:
    """Generator façade: yield results as an arrival stream is consumed.

    ``arrivals`` must be ordered by interval start. Equivalent to the
    offline :func:`repro.algorithms.timefirst.timefirst_join` on the same
    tuples (the test-suite checks exactly that), but with bounded memory
    proportional to the number of simultaneously valid tuples.
    """
    op = OnlineTemporalJoin(query, strict=strict, stats=stats)
    for relation, values, interval in arrivals:
        yield from op.insert(relation, values, interval)
    yield from op.finish()


def arrivals_from_database(
    database: Mapping[str, TemporalRelation]
) -> List[Tuple[str, Values, Interval]]:
    """Flatten a stored database into a start-ordered arrival stream."""
    out: List[Tuple[str, Values, Interval]] = []
    for name, rel in database.items():
        for values, interval in rel:
            out.append((name, values, interval))
    out.sort(key=lambda item: (item[2].lo, item[2].hi))
    return out
