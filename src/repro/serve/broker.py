"""The shared ingest path: one arrival stream, N standing queries.

:class:`StreamBroker` owns the single entry point tuples take into the
serving layer. Each :meth:`append` is fanned out to every registered
*evaluation* — one per distinct ``(hypergraph, τ)`` template, holding a
live :class:`~repro.algorithms.online.OnlineTemporalJoin` — and every
result an arrival or watermark finalizes is delivered to the template's
attached :class:`~repro.serve.query.StandingQuery` handles immediately,
projected into each handle's output attribute order.

τ-durability is folded into the ingest itself, reusing the offline τ/2
reduction (§2 of the paper): a τ-template's operator receives arrivals
shrunk by τ/2 (tuples whose interval vanishes never enter the state) and
its emissions are expanded back on delivery. Because the shrink shifts
every start by the same ``+τ/2``, the broker's single arrival order
serves every τ simultaneously, and a broker watermark ``w`` translates
to ``w + τ/2`` on the shrunk timeline.

Ordering is enforced once, here: arrivals must be non-decreasing in
interval start. ``strict=True`` (default) raises on violations;
``strict=False`` clamps the arrival to the broker watermark and records
``serve.clamped`` plus the ``serve.clamp_reason`` note, mirroring the
online operator's own degradation contract — never silent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..algorithms.online import OnlineTemporalJoin
from ..core.errors import QueryError
from ..core.interval import Interval, IntervalLike, Number
from ..core.query import JoinQuery
from ..core.result import ResultRow
from ..obs import ExecutionStats
from .query import Emission, StandingQuery

Values = Tuple[object, ...]

#: Rows built into emissions and delivered at a time: bounds what an
#: end-of-stream flush holds besides the rows themselves.
DELIVERY_CHUNK = 1024

_NEG_INF = float("-inf")
_POS_INF = float("inf")
_fast = Interval._fast


class _Evaluation:
    """One live operator shared by every handle of one (hypergraph, τ)."""

    __slots__ = ("query", "tau", "half", "op", "handles", "relations")

    def __init__(
        self,
        query: JoinQuery,
        tau: Number,
        stats: ExecutionStats,
    ) -> None:
        self.query = query
        self.tau = tau
        self.half = tau / 2 if tau else 0
        self.op = OnlineTemporalJoin(query, strict=True, stats=stats)
        self.handles: List[StandingQuery] = []
        self.relations = frozenset(query.edge_names)

    def projection(self, handle_query: JoinQuery) -> Optional[Tuple[int, ...]]:
        """Column permutation from the canonical attrs to the handle's."""
        if tuple(handle_query.attrs) == tuple(self.query.attrs):
            return None
        return tuple(self.query.attrs.index(a) for a in handle_query.attrs)


class StreamBroker:
    """Continuous tuple ingest with per-template fan-out and expiry.

    Constructed by :class:`~repro.serve.service.TemporalJoinService`;
    drive it through the service façade unless you are building your own
    serving loop.
    """

    def __init__(
        self,
        strict: bool = True,
        stats: Optional[ExecutionStats] = None,
    ) -> None:
        self.stats = stats if stats is not None else ExecutionStats()
        self.strict = strict
        self._evaluations: Dict[Tuple, _Evaluation] = {}
        # relation name -> (attribute tuple, #evaluations reading it):
        # one shared stream means one schema per relation name.
        self._schemas: Dict[str, Tuple[Tuple[str, ...], int]] = {}
        self._watermark: Optional[Number] = None
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def watermark(self) -> Optional[Number]:
        """Largest settled instant on the original (un-shrunk) timeline."""
        return self._watermark

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def active_size(self) -> int:
        """Live tuples across all evaluation operators (SLO: state size)."""
        return sum(e.op.active_count for e in self._evaluations.values())

    @property
    def evaluations(self) -> List[_Evaluation]:
        return list(self._evaluations.values())

    def schema(self, relation: str) -> Optional[Tuple[str, ...]]:
        """The attribute order the templates read ``relation`` in (``None``
        when no registered template reads it): :meth:`append` takes its
        values in this order."""
        known = self._schemas.get(relation)
        return None if known is None else known[0]

    # ------------------------------------------------------------------
    # Registration (service-internal)
    # ------------------------------------------------------------------
    def attach(
        self, key: Tuple, query: JoinQuery, tau: Number, handle: StandingQuery
    ) -> bool:
        """Attach ``handle``; returns True when a new evaluation was born."""
        evaluation = self._evaluations.get(key)
        created = evaluation is None
        if created:
            for name in query.edge_names:
                attrs = tuple(query.edge(name))
                known = self._schemas.get(name)
                if known is not None and known[0] != attrs:
                    raise QueryError(
                        f"standing query {handle.name!r} binds relation "
                        f"{name!r} to attributes {attrs}, but the shared "
                        f"stream already carries it as {known[0]}"
                    )
            for name in query.edge_names:
                attrs = tuple(query.edge(name))
                known = self._schemas.get(name)
                self._schemas[name] = (attrs, (known[1] + 1) if known else 1)
            evaluation = _Evaluation(query, tau, stats=self.stats)
            # A template registered mid-stream starts at the current
            # watermark: it sees only arrivals from here on.
            if self._watermark is not None:
                evaluation.op.advance_to(self._watermark + evaluation.half)
            self._evaluations[key] = evaluation
        evaluation.handles.append(handle)
        return created

    def detach(self, key: Tuple, handle: StandingQuery) -> bool:
        """Detach ``handle``; returns True when the evaluation died."""
        evaluation = self._evaluations.get(key)
        if evaluation is None or handle not in evaluation.handles:
            raise QueryError(f"standing query {handle.name!r} is not registered")
        evaluation.handles.remove(handle)
        if not evaluation.handles:
            del self._evaluations[key]
            for name in evaluation.query.edge_names:
                attrs, count = self._schemas[name]
                if count <= 1:
                    del self._schemas[name]
                else:
                    self._schemas[name] = (attrs, count - 1)
            return True
        return False

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def append(
        self, relation: str, values: Values, interval: IntervalLike
    ) -> int:
        """Ingest one tuple; returns the number of emissions delivered.

        The arrival is fanned out to every evaluation whose template
        reads ``relation``; results finalized by it (its start proves
        earlier expirations settled) are delivered before returning.
        """
        if self._closed:
            raise QueryError("append after finish() on the stream broker")
        known = self._schemas.get(relation)
        if known is not None and len(values) != len(known[0]):
            raise QueryError(
                f"arity mismatch: relation {relation!r} carries attributes "
                f"{known[0]}, got {len(values)}-tuple {values!r}"
            )
        iv = Interval.coerce(interval)
        stats = self.stats
        if self._watermark is not None and iv.lo < self._watermark:
            if self.strict:
                raise QueryError(
                    f"out-of-order arrival: start {iv.lo} precedes the "
                    f"broker watermark {self._watermark}"
                )
            clamped = Interval(self._watermark, max(self._watermark, iv.hi))
            stats.incr("serve.clamped")
            stats.note(
                "serve.clamp_reason",
                f"out-of-order arrival {relation}{values} {iv} clamped to "
                f"{clamped} at broker watermark {self._watermark}",
            )
            iv = clamped
        self._watermark = iv.lo if self._watermark is None else max(self._watermark, iv.lo)
        stats.incr("serve.appends")
        if known is None:
            # No registered template reads this relation: the append is
            # legal (streams outlive query fleets) but does no work.
            stats.incr("serve.unmatched_appends")
        delivered = 0
        for evaluation in self._evaluations.values():
            if relation not in evaluation.relations:
                continue
            run_iv = iv if not evaluation.half else iv.shrink(evaluation.half)
            if run_iv is None:
                # Shorter than τ: can never appear in a τ-durable result.
                stats.incr("serve.shrink_dropped")
                continue
            stats.incr("serve.fanout_inserts")
            rows = evaluation.op.insert(relation, values, run_iv)
            delivered += self._dispatch(evaluation, rows, trigger=iv.lo)
        stats.peak("serve.active_peak", self.active_size)
        return delivered

    def advance_to(self, watermark: Number) -> int:
        """Declare that no future arrival starts before ``watermark``.

        Drives per-template expiry: every evaluation drains expirations
        strictly below the (τ-translated) watermark and the finalized
        results are delivered. Returns the number of emissions.
        """
        if self._closed:
            raise QueryError("advance_to after finish() on the stream broker")
        if self._watermark is not None and watermark <= self._watermark:
            if watermark < self._watermark:
                self.stats.incr("serve.watermark_regressions")
            return 0
        self._watermark = watermark
        self.stats.incr("serve.watermarks")
        delivered = 0
        for evaluation in self._evaluations.values():
            rows = evaluation.op.advance_to(watermark + evaluation.half)
            delivered += self._dispatch(evaluation, rows, trigger=watermark)
        return delivered

    def finish(self) -> int:
        """Flush every evaluation and close the stream. Idempotent."""
        if self._closed:
            return 0
        self._closed = True
        # Everything is settled once the stream ends: the watermark jumps
        # to +inf and every handle's snapshot becomes complete.
        self._watermark = float("inf")
        delivered = 0
        for evaluation in self._evaluations.values():
            rows = evaluation.op.finish()
            delivered += self._dispatch(evaluation, rows, trigger=None)
        for evaluation in self._evaluations.values():
            for handle in evaluation.handles:
                handle._close()
        return delivered

    # ------------------------------------------------------------------
    def _dispatch(
        self,
        evaluation: _Evaluation,
        rows: List[ResultRow],
        trigger: Optional[Number],
    ) -> int:
        """Expand, project and deliver freshly finalized rows.

        Rows go out in chunks of :data:`DELIVERY_CHUNK`, each handed to
        every handle in turn, so an end-of-stream flush never holds more
        than one chunk of emissions. Each handle sees its rows in order,
        and its watermark moves with the last chunk, once every row it
        covers has been delivered.
        """
        watermark = self._watermark
        if not rows:
            for handle in evaluation.handles:
                handle._deliver([], watermark)
            return 0
        half = evaluation.half
        tau = evaluation.tau
        stats = self.stats
        targets = [
            (handle, evaluation.projection(handle.query))
            for handle in evaluation.handles
        ]
        delivered = 0
        with stats.timer("phase.serve.deliver"):
            for start in range(0, len(rows), DELIVERY_CHUNK):
                chunk = rows[start:start + DELIVERY_CHUNK]
                last = start + DELIVERY_CHUNK >= len(rows)
                emissions: List[Emission] = []
                for values, iv in chunk:
                    if half:
                        # Interval.expand's arithmetic: infinite endpoints
                        # are fixed points, and widening keeps lo <= hi.
                        lo, hi = iv.lo, iv.hi
                        iv = _fast(
                            lo - half if lo > _NEG_INF else lo,
                            hi + half if hi < _POS_INF else hi,
                        )
                    # End-of-stream flushes carry no event time; their
                    # emissions are stamped at the instant they became
                    # provable, `hi - τ` (zero lag by construction).
                    at = trigger if trigger is not None else iv.hi - tau
                    emissions.append(Emission(values, iv, at, tau))
                for handle, projection in targets:
                    if projection is not None:
                        handle_emissions = [
                            Emission(
                                tuple(e.values[p] for p in projection),
                                e.interval,
                                e.at,
                                tau,
                            )
                            for e in emissions
                        ]
                    else:
                        handle_emissions = emissions
                    handle._deliver(handle_emissions, watermark if last else None)
                    delivered += len(emissions)
        stats.incr("serve.results_emitted", len(rows))
        return delivered
