"""`TemporalJoinService` — the long-running serving façade.

ROADMAP's serving story made concrete: *one ingest path, N standing
queries*. The service wraps a :class:`~repro.serve.broker.StreamBroker`
with

* **runtime registration** — :meth:`register` / :meth:`deregister` add
  and remove standing queries while the stream runs. Identical query
  templates are deduplicated through the same shape keys the
  prepared-columns engine uses (:func:`~repro.core.planner.plan_signature`
  / :func:`~repro.core.planner.hypergraph_signature`): handles whose
  queries share a hypergraph and τ share one live operator, and
  attribute-order variants receive projections of its rows — the
  streaming analogue of :func:`repro.kernels.prepared.run_batch`'s sweep
  sharing. Figure-7 plans are cached per ``plan_signature`` so a
  template fleet pays the planner once per shape
  (``serve.plan_cache_hits`` / ``serve.plan_cache_misses``).
* **bulk ingest** — :meth:`ingest_database` streams a stored database
  through the live broker in one endpoint-ordered pass
  (``serve.ingest_passes``), the same appends a live stream makes.
* **SLO telemetry** — ``serve.*`` counters through the existing
  :mod:`repro.obs` layer: ingest volume and rate, emission event-time
  lag (finalizable point to delivery), active-set size, buffer depths,
  drops and clamps. :meth:`telemetry` folds the per-query stats into
  one report.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..algorithms.online import arrivals_from_database
from ..core.errors import QueryError
from ..core.interval import IntervalLike, Number
from ..core.planner import Plan, hypergraph_signature, plan, plan_signature
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..obs import ExecutionStats
from .broker import StreamBroker
from .query import Backpressure, StandingQuery

Values = Tuple[object, ...]
Database = Mapping[str, TemporalRelation]


class TemporalJoinService:
    """Standing-query streaming service over one shared temporal ingest path.

    Parameters
    ----------
    strict:
        Ordering contract for the ingest path (see
        :class:`~repro.serve.broker.StreamBroker`).
    stats:
        Optional service-wide :class:`ExecutionStats`; a fresh one is
        created when omitted and exposed as :attr:`stats`.
    """

    def __init__(
        self,
        strict: bool = True,
        stats: Optional[ExecutionStats] = None,
        plan_cache=None,
    ) -> None:
        self.stats = stats if stats is not None else ExecutionStats()
        self.broker = StreamBroker(strict=strict, stats=self.stats)
        self._handles: Dict[str, Tuple[Tuple, StandingQuery]] = {}
        self._plans: Dict[Tuple, Plan] = {}
        #: Optional persistent :class:`repro.core.plancache.PlanCache`
        #: (or directory path) behind the in-memory template dedup, so a
        #: restarted service re-registers its fleet without re-searching.
        self.plan_cache = plan_cache
        self._names = itertools.count(1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TemporalJoinService(queries={len(self._handles)}, "
            f"watermark={self.broker.watermark!r})"
        )

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        query: JoinQuery,
        tau: Number = 0,
        name: Optional[str] = None,
        policy: str = Backpressure.BLOCK,
        buffer_size: int = 1024,
        block_timeout: Optional[Number] = 30.0,
        retain_results: bool = True,
    ) -> StandingQuery:
        """Register a standing query; returns its consumer handle.

        May be called at any time, including mid-stream — a template
        registered after ingest began sees only arrivals from the
        current watermark on. Identical templates (same hypergraph, same
        τ) share one live operator; the handle still gets its own
        buffer, policy, and telemetry.
        """
        from ..algorithms.registry import _check_tau

        _check_tau(tau)
        if name is None:
            name = f"q{next(self._names)}"
        if name in self._handles:
            raise QueryError(f"standing query name {name!r} is already registered")
        sig = plan_signature(query)
        if sig in self._plans:
            self.stats.incr("serve.plan_cache_hits")
        else:
            self.stats.incr("serve.plan_cache_misses")
            self._plans[sig] = plan(
                query, cache=self.plan_cache, stats=self.stats
            )
        handle = StandingQuery(
            name,
            query,
            tau,
            policy=policy,
            buffer_size=buffer_size,
            block_timeout=block_timeout,
            retain_results=retain_results,
        )
        key = (hypergraph_signature(query), tau)
        created = self.broker.attach(key, query, tau, handle)
        self._handles[name] = (key, handle)
        self.stats.incr("serve.registered")
        if not created:
            self.stats.incr("serve.template_dedup")
        self.stats.peak("serve.queries_peak", len(self._handles))
        return handle

    def deregister(self, handle_or_name) -> None:
        """Remove a standing query; its template's operator dies with the
        last handle attached to it."""
        name = (
            handle_or_name.name
            if isinstance(handle_or_name, StandingQuery)
            else handle_or_name
        )
        entry = self._handles.pop(name, None)
        if entry is None:
            raise QueryError(f"standing query {name!r} is not registered")
        key, handle = entry
        self.broker.detach(key, handle)
        handle._close()
        self.stats.incr("serve.deregistered")

    def plan_for(self, handle_or_name) -> Plan:
        """The cached Figure-7 plan of a registered query's template."""
        name = (
            handle_or_name.name
            if isinstance(handle_or_name, StandingQuery)
            else handle_or_name
        )
        entry = self._handles.get(name)
        if entry is None:
            raise QueryError(f"standing query {name!r} is not registered")
        return self._plans[plan_signature(entry[1].query)]

    @property
    def queries(self) -> List[StandingQuery]:
        return [handle for _, handle in self._handles.values()]

    @property
    def watermark(self) -> Optional[Number]:
        return self.broker.watermark

    # ------------------------------------------------------------------
    # Streaming ingest (delegates to the broker)
    # ------------------------------------------------------------------
    def append(self, relation: str, values: Values, interval: IntervalLike) -> int:
        """Ingest one tuple now; returns the emissions it finalized.

        ``values`` are in the relation's registered attribute order
        (:meth:`StreamBroker.schema`), the query edge's order.
        """
        with self.stats.timer("phase.serve.ingest"):
            return self.broker.append(relation, values, interval)

    def advance_to(self, watermark: Number) -> int:
        """Advance every standing query's expiry to ``watermark``."""
        with self.stats.timer("phase.serve.ingest"):
            return self.broker.advance_to(watermark)

    def finish(self) -> int:
        """Flush all standing queries and close the ingest path."""
        with self.stats.timer("phase.serve.ingest"):
            return self.broker.finish()

    # ------------------------------------------------------------------
    # Bulk ingest: one pass through the live broker
    # ------------------------------------------------------------------
    def ingest_database(self, database: Database, *, finish: bool = True) -> int:
        """Stream a stored database through the service in one pass.

        Relations are read by attribute name: each one a registered
        template reads is laid out in the broker's order for that name
        (:meth:`TemporalRelation.reordered`), whatever order it is
        stored in, and :class:`QueryError` names a relation whose
        attribute set differs. Relations no template reads pass as they
        are. Replays the endpoint-ordered arrival stream through the
        live broker and, unless ``finish=False`` leaves the stream open,
        finishes it. Returns the number of emissions delivered. Counts
        one ``serve.ingest_passes`` — N standing queries share the pass.
        """
        if self.broker.closed:
            raise QueryError("ingest_database after finish() on the service")
        database = {
            name: self._registered_order(name, relation)
            for name, relation in database.items()
        }
        self.stats.incr("serve.ingest_passes")
        started = time.perf_counter()
        delivered = self.ingest_stream(arrivals_from_database(database), finish)
        self.stats.add_time("phase.serve.pass", time.perf_counter() - started)
        return delivered

    def _registered_order(
        self, name: str, relation: TemporalRelation
    ) -> TemporalRelation:
        """``relation`` with its values in the order the templates read it."""
        attrs = self.broker.schema(name)
        if attrs is None:
            return relation
        if set(attrs) != set(relation.attrs):
            raise QueryError(
                f"relation {name!r} is stored with attributes {relation.attrs}, "
                f"but the registered templates read it as {attrs}"
            )
        return relation.reordered(attrs)

    def ingest_stream(
        self,
        arrivals: Iterable[Tuple[str, Values, IntervalLike]],
        finish: bool = False,
    ) -> int:
        """Append a pre-ordered arrival stream through the live broker."""
        delivered = 0
        for relation, values, interval in arrivals:
            delivered += self.append(relation, values, interval)
        if finish:
            delivered += self.finish()
        return delivered

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def telemetry(self) -> ExecutionStats:
        """Service stats with every standing query's stats folded in."""
        merged = ExecutionStats()
        merged.merge(self.stats)
        for handle in self.queries:
            merged.merge(handle.stats)
        return merged

    def slo_report(self) -> str:
        """Human-readable per-query SLO summary (counts, lag, depth)."""
        lines = [
            f"{'query':<12} {'template':<22} {'tau':>5} {'delivered':>9} "
            f"{'lag.max':>7} {'depth.peak':>10} {'dropped':>7}"
        ]
        for handle in sorted(self.queries, key=lambda h: h.name):
            stats = handle.stats
            template = ",".join(sorted(handle.query.edge_names))
            lines.append(
                f"{handle.name:<12} {template:<22} {handle.tau:>5g} "
                f"{handle.delivered:>9} "
                f"{stats.get('serve.emit_lag.max'):>7} "
                f"{stats.get('serve.buffer_depth_peak'):>10} "
                f"{stats.get('serve.dropped'):>7}"
            )
        ingest = self.stats.timers.get("phase.serve.ingest", 0.0)
        appends = self.stats.get("serve.appends")
        if ingest > 0 and appends:
            lines.append(
                f"ingest: {appends} tuples in {ingest * 1e3:.1f} ms "
                f"({appends / ingest:,.0f} tuples/s)"
            )
        return "\n".join(lines)
