"""Standing-query handles: subscriptions, bounded buffers, snapshots.

A :class:`StandingQuery` is the consumer-facing end of one registered
query in the serving layer. The broker pushes finalized results into it;
consumers take them out through either

* **subscriptions** — callbacks invoked synchronously on the ingest
  thread at delivery time (push mode), or
* **the pull iterator** — :meth:`poll` / :meth:`drain` / iteration over
  the handle, backed by a bounded buffer (pull mode).

The buffer is bounded and its overflow behaviour is an explicit
:class:`Backpressure` policy, chosen at registration:

* ``BLOCK`` — the ingest path waits until a consumer makes room (the
  classic backpressure; a ``block_timeout`` turns starvation into a
  :class:`~repro.core.errors.QueryError` instead of a deadlock);
* ``DROP_OLDEST`` — the oldest undelivered emission is discarded and
  counted (``serve.dropped``), never silently;
* ``ERROR`` — overflow raises immediately, failing the ingest call.

Independently of buffer consumption, the handle retains every finalized
row (``retain_results=True``, the default) so :meth:`snapshot` can serve
a *consistent read at a watermark*: all results finalized at or before
the handle's current watermark, exactly once, regardless of which
emissions were dropped or already consumed. Long-running services that
never snapshot can disable retention to keep the handle's memory bounded
by the buffer alone.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterator, List, Optional, Tuple

from ..core.errors import QueryError
from ..core.interval import Interval, Number
from ..core.query import JoinQuery
from ..core.result import JoinResultSet
from ..obs import ExecutionStats

Values = Tuple[object, ...]


class Backpressure:
    """The three buffer-overflow policies (plain strings, compared as such)."""

    BLOCK = "block"
    DROP_OLDEST = "drop-oldest"
    ERROR = "error"

    ALL = (BLOCK, DROP_OLDEST, ERROR)

    @classmethod
    def check(cls, policy: str) -> str:
        if policy not in cls.ALL:
            raise QueryError(
                f"unknown backpressure policy {policy!r}; expected one of {cls.ALL}"
            )
        return policy


@dataclass(frozen=True)
class Emission:
    """One delivered result: the row plus its delivery event time.

    ``interval`` is the τ-widened result interval. A τ-durable result is
    provable once the stream passes ``interval.hi - tau`` (its shrunk
    right endpoint has then expired). ``at`` is the broker event time
    (original, un-shrunk timeline) that triggered the delivery — the
    first arrival start or declared watermark strictly past that
    instant, or the instant itself for end-of-stream flushes. ``lag`` is
    ``at`` minus that instant: zero means the result left the operator
    as early as it could be proven.
    """

    values: Values
    interval: Interval
    at: Number
    tau: Number = 0

    @property
    def row(self) -> Tuple[Values, Interval]:
        return (self.values, self.interval)

    @property
    def lag(self) -> Number:
        return self.at - (self.interval.hi - self.tau)


@dataclass(frozen=True)
class Snapshot:
    """A consistent read: every result finalized at watermark ``at``."""

    at: Optional[Number]
    results: JoinResultSet

    def __len__(self) -> int:
        return len(self.results)


class StandingQuery:
    """One registered query's consumer handle (created by the service).

    Not constructed directly — use
    :meth:`repro.serve.TemporalJoinService.register`.
    """

    def __init__(
        self,
        name: str,
        query: JoinQuery,
        tau: Number,
        policy: str = Backpressure.BLOCK,
        buffer_size: int = 1024,
        block_timeout: Optional[Number] = 30.0,
        retain_results: bool = True,
    ) -> None:
        if buffer_size < 1:
            raise QueryError(f"buffer_size must be >= 1, got {buffer_size}")
        self.name = name
        self.query = query
        self.tau = tau
        self.policy = Backpressure.check(policy)
        self.buffer_size = buffer_size
        self.block_timeout = block_timeout
        self.stats = ExecutionStats()
        self._buffer: Deque[Emission] = deque()
        self._cond = threading.Condition()
        self._subscribers: List[Callable[[Emission], None]] = []
        self._retained: Optional[JoinResultSet] = (
            JoinResultSet(query.attrs) if retain_results else None
        )
        self._watermark: Optional[Number] = None
        self._delivered = 0
        self._closed = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StandingQuery({self.name!r}, tau={self.tau}, "
            f"policy={self.policy!r}, pending={self.pending})"
        )

    # ------------------------------------------------------------------
    # Consumer API
    # ------------------------------------------------------------------
    @property
    def watermark(self) -> Optional[Number]:
        """Largest settled instant this handle has been advanced to."""
        return self._watermark

    @property
    def pending(self) -> int:
        """Emissions currently buffered and not yet consumed."""
        with self._cond:
            return len(self._buffer)

    @property
    def delivered(self) -> int:
        """Total emissions delivered to this handle so far."""
        return self._delivered

    @property
    def closed(self) -> bool:
        return self._closed

    def subscribe(self, callback: Callable[[Emission], None]) -> None:
        """Push mode: invoke ``callback`` for every future emission.

        Subscribed handles bypass the buffer entirely — the callback runs
        synchronously on the ingest path, so its cost is the query's SLO.
        """
        self._subscribers.append(callback)

    def poll(self, timeout: Optional[Number] = 0) -> Optional[Emission]:
        """Take the oldest buffered emission, or ``None`` if none arrives.

        ``timeout=0`` (default) never blocks; ``timeout=None`` waits until
        an emission arrives or the query closes.
        """
        with self._cond:
            while not self._buffer:
                if self._closed or timeout == 0:
                    return None
                if not self._cond.wait(timeout=timeout):
                    return None
            emission = self._buffer.popleft()
            self._cond.notify_all()
            return emission

    def drain(self) -> List[Emission]:
        """Take every buffered emission at once (never blocks)."""
        with self._cond:
            out = list(self._buffer)
            self._buffer.clear()
            self._cond.notify_all()
            return out

    def __iter__(self) -> Iterator[Emission]:
        """Iterate emissions until the query closes and the buffer empties."""
        while True:
            emission = self.poll(timeout=None)
            if emission is None:
                if self._closed and not self._buffer:
                    return
                continue
            yield emission

    def snapshot(self) -> Snapshot:
        """Consistent read at the current watermark.

        Returns *all* results finalized so far — independent of buffer
        consumption and of any ``drop-oldest`` losses — with the
        watermark they are consistent at. Requires ``retain_results``.
        """
        if self._retained is None:
            raise QueryError(
                f"standing query {self.name!r} was registered with "
                "retain_results=False; snapshot reads are unavailable"
            )
        with self._cond:
            return Snapshot(
                self._watermark,
                JoinResultSet(self._retained.attrs, list(self._retained.rows)),
            )

    # ------------------------------------------------------------------
    # Producer API (the broker side)
    # ------------------------------------------------------------------
    def _deliver(self, emissions: List[Emission], watermark: Optional[Number]) -> None:
        """Deliver finalized rows; apply the backpressure policy."""
        stats = self.stats
        if emissions:
            if self._retained is not None:
                self._retained.extend([(e.values, e.interval) for e in emissions])
            self._delivered += len(emissions)
            # The values of one ``observe("serve.emit_lag", lag)`` per
            # emission: the total folds onto the recorded one in emission
            # order, and a NaN lag (an unbounded row at the end-of-stream
            # flush, inf - inf) counts as 0.
            counters = stats.counters
            total = counters.get("serve.emit_lag.total", 0)
            largest = 0
            for e in emissions:
                lag = e.lag
                if lag == lag:
                    total += lag
                    if lag > largest:
                        largest = lag
            stats.incr("serve.results_delivered", len(emissions))
            stats.incr("serve.emit_lag.count", len(emissions))
            counters["serve.emit_lag.total"] = total
            stats.peak("serve.emit_lag.max", largest)
        if watermark is not None and (
            self._watermark is None or watermark > self._watermark
        ):
            self._watermark = watermark
        if self._subscribers:
            for emission in emissions:
                for callback in self._subscribers:
                    callback(emission)
            return
        if not emissions:
            return
        with self._cond:
            for emission in emissions:
                while len(self._buffer) >= self.buffer_size:
                    if self.policy == Backpressure.DROP_OLDEST:
                        self._buffer.popleft()
                        stats.incr("serve.dropped")
                        stats.note(
                            "serve.backpressure",
                            f"drop-oldest discarded emissions on {self.name!r} "
                            f"(buffer_size={self.buffer_size})",
                        )
                    elif self.policy == Backpressure.ERROR:
                        raise QueryError(
                            f"standing query {self.name!r} buffer overflow "
                            f"({self.buffer_size} emissions pending; policy=error)"
                        )
                    else:  # BLOCK: wait for a consumer to make room
                        if not self._cond.wait(timeout=self.block_timeout):
                            raise QueryError(
                                f"standing query {self.name!r} backpressure "
                                f"timeout after {self.block_timeout}s "
                                f"(buffer full, no consumer progress)"
                            )
                self._buffer.append(emission)
                stats.peak("serve.buffer_depth_peak", len(self._buffer))
            self._cond.notify_all()

    def _close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
