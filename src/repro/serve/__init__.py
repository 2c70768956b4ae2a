"""Serving layer: standing temporal join queries over one shared ingest path.

The §3.1 "dynamic instance of natural join" promoted from a library class
(:class:`~repro.algorithms.online.OnlineTemporalJoin`) into a
long-running service:

* :class:`StreamBroker` — the single ingest path: continuous per-relation
  tuple appends, watermark-driven per-query expiry, fan-out to every
  registered template;
* :class:`StandingQuery` — a registered query's consumer handle: result
  subscriptions (callback and pull-iterator), a bounded buffer with an
  explicit :class:`Backpressure` policy, consistent :meth:`snapshot
  <StandingQuery.snapshot>` reads at a watermark;
* :class:`TemporalJoinService` — the façade: runtime register/deregister
  with template dedup through the planner's shape signatures, bulk
  ingest through the live broker, and per-query SLO telemetry
  (``serve.*`` counters).

Quickstart
----------
>>> from repro import JoinQuery
>>> from repro.serve import TemporalJoinService
>>> svc = TemporalJoinService()
>>> pairs = svc.register(JoinQuery.star(2), name="pairs")
>>> svc.append("R1", (1, "h"), (0, 10))
0
>>> svc.append("R2", (2, "h"), (2, 5))
0
>>> svc.advance_to(6)  # no arrival will start before t=6
1
>>> [e.row for e in pairs.drain()]
[((1, 'h', 2), [2, 5])]
"""

from .broker import StreamBroker
from .query import Backpressure, Emission, Snapshot, StandingQuery
from .service import TemporalJoinService

__all__ = [
    "Backpressure",
    "Emission",
    "Snapshot",
    "StandingQuery",
    "StreamBroker",
    "TemporalJoinService",
]
