"""Prepared databases: pay the columnar ingest once, sweep many times.

The serving story in ROADMAP.md is "one ingest path, N standing
queries". A cold ``temporal_join(engine="kernel")`` call re-interns
values, re-ranks endpoints and re-sorts the event stream every time;
:func:`prepare` hoists all three into a reusable, immutable, picklable
:class:`PreparedDatabase` artifact that any number of queries then sweep
over:

* ``temporal_join(query, database, prepared=artifact)`` validates the
  artifact against ``database`` and skips ``build_columns`` entirely;
* :func:`run_batch` evaluates a whole query fleet against one artifact —
  distinct hypergraphs are swept once each (queries differing only in
  output attribute order share one sweep and get projections of its
  rows), τ-shrunk views and per-query relation restrictions are derived
  from the base columns without re-sorting (``kernel.sort_calls`` stays
  at the single ingest sort for a τ=0 batch), and a plan cache keyed by
  :func:`repro.core.planner.plan_signature` + algorithm lets repeated
  templates skip the Figure-7 planner;
* with ``workers >= 2`` the batch ships each worker *one* shard column
  subset and reuses it for every query in the batch, instead of
  re-subsetting per query.

Invalidation is the caller's job: the artifact is a snapshot. Passing a
database whose relations no longer match (names, attribute tuples, row
counts, rows) raises :class:`~repro.core.errors.QueryError`; mutating a
relation in place behind the artifact's back is undetectable and
unsupported. Queries that require the footnote-2 r-hierarchical
*instance* reduction fall back to the cold kernel path — the reduction
rewrites the data per query, which is exactly what a shared artifact
cannot amortize.

Telemetry: ``prepared.*`` counters (cache hits/misses for plans, τ-views
and restrictions, reuse and shared-result counts, cold fallbacks) plus
``phase.prepared.*`` timers, including ``phase.prepared.saved`` — the
estimated ingest time each reuse avoided, pro-rated by the fraction of
prepared rows the query touched.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import QueryError
from ..core.interval import Number
from ..core.planner import Plan, hypergraph_signature, plan, plan_signature
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..obs import ExecutionStats
from .columns import (
    KernelColumns,
    build_columns,
    shrink_columns,
)
from .engine import needs_reduction, record_reuse

__all__ = ["PreparedDatabase", "needs_reduction", "prepare", "run_batch"]

Database = Mapping[str, TemporalRelation]


class PreparedDatabase:
    """Immutable prepared form of one database: columns built once.

    Holds the base :class:`~repro.kernels.columns.KernelColumns` (raw,
    un-shrunk endpoints) plus three caches that fill lazily and only
    ever grow:

    * τ-views — ``shrink_columns`` output per distinct ``tau`` (each
      costs one re-rank + re-sort, then is reused);
    * restrictions — per ``(tau, relation subset)`` column slices,
      derived from the view's sorted stream without re-sorting;
    * plans — :class:`~repro.core.planner.Plan` per
      :func:`~repro.core.planner.plan_signature`.

    The artifact is picklable (caches included) and safe to share
    across any number of queries; nothing in it is ever mutated after
    construction except the append-only caches.
    """

    def __init__(
        self,
        database: Database,
        columns: KernelColumns,
        build_seconds: float = 0.0,
        plan_cache=None,
    ) -> None:
        self.database = database
        self.columns = columns
        self.build_seconds = build_seconds
        self._views: Dict[Number, KernelColumns] = {}
        self._restrictions: Dict[Tuple, KernelColumns] = {}
        self._plans: Dict[Tuple, Plan] = {}
        #: Optional persistent :class:`repro.core.plancache.PlanCache`
        #: (or directory path) consulted on in-memory plan-cache misses.
        self.plan_cache = plan_cache

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PreparedDatabase(relations={list(self.columns.relations)}, "
            f"rows={self.columns.n_rows})"
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate_against(self, database: Database) -> None:
        """Check the artifact still describes ``database`` exactly.

        Identity is the fast path (same mapping, or same relation
        objects); otherwise relations must match by name set, attribute
        tuple, row count and — the full O(N) check, only reached for
        same-shaped but distinct objects — row-for-row content. Any
        mismatch raises :class:`QueryError` naming the stale relation.
        """
        if database is self.database:
            return
        mine = self.database
        if set(database) != set(mine):
            raise QueryError(
                "prepared database does not match: relations "
                f"{sorted(mine)} were prepared, got {sorted(database)}"
            )
        for name, prepared_rel in mine.items():
            rel = database[name]
            if rel is prepared_rel:
                continue
            if tuple(rel.attrs) != tuple(prepared_rel.attrs):
                raise QueryError(
                    f"prepared relation {name!r} has attributes "
                    f"{prepared_rel.attrs}, database has {rel.attrs}"
                )
            if len(rel) != len(prepared_rel) or list(rel) != list(prepared_rel):
                raise QueryError(
                    f"prepared columns are stale: relation {name!r} changed "
                    "since prepare(); re-prepare the database"
                )

    # ------------------------------------------------------------------
    # Cached derivations
    # ------------------------------------------------------------------
    def view(
        self, tau: Number, stats: Optional[ExecutionStats] = None
    ) -> KernelColumns:
        """The τ/2-shrunk columns for ``tau`` (base columns for τ=0)."""
        if tau == 0:
            return self.columns
        cached = self._views.get(tau)
        if cached is not None:
            if stats is not None:
                stats.incr("prepared.view_cache_hits")
            return cached
        if stats is None:
            cached = shrink_columns(self.columns, tau)
        else:
            stats.incr("prepared.view_cache_misses")
            with stats.timer("phase.prepared.view"):
                cached = shrink_columns(self.columns, tau, stats=stats)
        self._views[tau] = cached
        return cached

    def columns_for(
        self,
        query: JoinQuery,
        tau: Number = 0,
        stats: Optional[ExecutionStats] = None,
    ) -> KernelColumns:
        """Columns for ``query`` at ``tau``: view + relation restriction."""
        view_cols = self.view(tau, stats=stats)
        keep = set(query.edge_names)
        if keep == set(view_cols.relations):
            return view_cols
        key = (tau, tuple(sorted(keep)))
        cached = self._restrictions.get(key)
        if cached is not None:
            if stats is not None:
                stats.incr("prepared.restrict_cache_hits")
            return cached
        if stats is None:
            cached = view_cols.restrict(keep)
        else:
            stats.incr("prepared.restrict_cache_misses")
            with stats.timer("phase.prepared.restrict"):
                cached = view_cols.restrict(keep)
        self._restrictions[key] = cached
        return cached

    def cached_plan(
        self, query: JoinQuery, stats: Optional[ExecutionStats] = None
    ) -> Plan:
        """Figure-7 plan for ``query``, cached by shape signature.

        In-memory misses fall through to the planner with this
        artifact's persistent :attr:`plan_cache` (when configured), so a
        template fleet pays the decomposition search at most once per
        shape *across* processes, not just within one.
        """
        key = plan_signature(query)
        cached = self._plans.get(key)
        if cached is not None:
            if stats is not None:
                stats.incr("prepared.plan_cache_hits")
            return cached
        if stats is not None:
            stats.incr("prepared.plan_cache_misses")
        cached = plan(query, cache=self.plan_cache, stats=stats)
        self._plans[key] = cached
        return cached


def prepare(
    database: Database,
    stats: Optional[ExecutionStats] = None,
    plan_cache=None,
) -> PreparedDatabase:
    """Build the reusable columnar artifact for ``database`` — once.

    Interns values, rank-compresses endpoints and sorts the event-code
    stream exactly once (``kernel.sort_calls`` +1); every subsequent
    ``temporal_join(..., prepared=...)`` or :func:`run_batch` call over
    the artifact skips all three. ``plan_cache`` (a
    :class:`repro.core.plancache.PlanCache` or directory path) makes the
    artifact's plan cache persistent across processes.
    """
    start = time.perf_counter()
    columns = build_columns(database, stats=stats)
    return PreparedDatabase(
        database,
        columns,
        build_seconds=time.perf_counter() - start,
        plan_cache=plan_cache,
    )


# ----------------------------------------------------------------------
# Batch execution
# ----------------------------------------------------------------------

class _Evaluation:
    """One distinct (hypergraph, algorithm) sweep shared by ≥1 queries."""

    __slots__ = ("query", "route", "indices", "result")

    def __init__(self, query: JoinQuery, route) -> None:
        self.query = query          # canonical query (first seen)
        self.route = route          # its resolved registry Route
        self.indices: List[int] = []  # positions in the caller's list
        self.result: Optional[JoinResultSet] = None


def run_batch(
    queries: Sequence[JoinQuery],
    prepared: PreparedDatabase,
    tau: Number = 0,
    algorithm: str = "auto",
    engine: str = "auto",
    stats: Optional[ExecutionStats] = None,
    workers: Optional[int] = None,
    parallel_mode: str = "process",
) -> List[JoinResultSet]:
    """Evaluate a fleet of queries against one prepared database.

    Returns one :class:`JoinResultSet` per input query, in order, each
    equal (up to row order) to ``temporal_join(q, prepared.database,
    tau=tau, algorithm=algorithm, engine=engine)``. The batch is where
    amortization compounds:

    * preparation (intern / rank / event sort) is inherited from the
      artifact — a τ=0 batch performs **zero** additional sorts;
    * queries sharing a hypergraph share one sweep: duplicates receive
      the same rows (``prepared.shared_results``), attribute-order
      variants a projection of them;
    * with ``workers >= 2`` all kernel-eligible sweeps in the batch run
      over one set of shard column subsets, shipped to the pool once.

    Queries the kernel cannot serve from the artifact — non-kernel
    algorithms, or r-hierarchical queries needing the per-query instance
    reduction — run their route cold on the relations they touch; the
    route counts each such query in ``prepared.fallback_queries``.
    """
    from ..algorithms.registry import resolve_route, run_route

    # ------------------------------------------------------------------
    # Resolve + dedup: one _Evaluation per distinct (hypergraph, algo).
    # ------------------------------------------------------------------
    database = prepared.database
    evaluations: Dict[Tuple, _Evaluation] = {}
    order: List[_Evaluation] = []
    for index, query in enumerate(queries):
        query.validate(database)
        route = resolve_route(
            query, database, tau, algorithm, stats=stats, workers=workers,
            engine=engine, prepared=prepared,
        )
        key = (hypergraph_signature(query), route.name)
        evaluation = evaluations.get(key)
        if evaluation is None:
            evaluation = evaluations[key] = _Evaluation(query, route)
            order.append(evaluation)
        evaluation.indices.append(index)
    if stats is not None:
        stats.incr("prepared.batch_queries", len(queries))
        stats.incr("prepared.batch_evaluations", len(order))

    # ------------------------------------------------------------------
    # Execute each distinct evaluation once: the artifact's readers over
    # one shard fan-out when parallel, the rest as their routes say.
    # ------------------------------------------------------------------
    readers = [e for e in order if e.route.prepared is not None]
    if workers is not None and workers > 1 and readers:
        _run_kernel_batch_parallel(
            readers, prepared, tau, workers, parallel_mode, stats
        )
    for evaluation in order:
        if evaluation.result is None:
            query = evaluation.query
            sub_db = {name: database[name] for name in query.edge_names}
            evaluation.result = run_route(
                evaluation.route, query, sub_db, tau, stats, workers,
                parallel_mode,
            )

    # ------------------------------------------------------------------
    # Distribute: shared rows, projected into each requested attr order.
    # ------------------------------------------------------------------
    results: List[Optional[JoinResultSet]] = [None] * len(queries)
    for evaluation in order:
        shared = evaluation.result
        for position, index in enumerate(evaluation.indices):
            query = queries[index]
            # Distribution operates on de-interned *result* rows, after
            # every sweep finished — not per-event object rows in a
            # kernel hot loop, which is what the rule polices.
            if tuple(query.attrs) == tuple(shared.attrs):
                results[index] = (
                    shared
                    if position == 0
                    else JoinResultSet(query.attrs, shared.rows)  # repro-lint: disable=kernel-no-object-rows
                )
            else:
                at = [shared.attrs.index(a) for a in query.attrs]
                results[index] = JoinResultSet(
                    query.attrs,
                    (
                        (tuple(values[p] for p in at), interval)
                        for values, interval in shared.rows  # repro-lint: disable=kernel-no-object-rows
                    ),
                )
            if position and stats is not None:
                stats.incr("prepared.shared_results")
    return results  # type: ignore[return-value]


def _run_kernel_batch_parallel(
    kernel_evals: List[_Evaluation],
    prepared: PreparedDatabase,
    tau: Number,
    workers: int,
    mode: str,
    stats: Optional[ExecutionStats],
) -> None:
    """Run every kernel evaluation of a batch over one shard fan-out.

    The τ-view is sharded once; each worker receives its column subset
    once and sweeps *all* batch queries over it (restricting locally per
    distinct relation subset). Per-query ownership filtering keeps the
    exactly-once merge rule of :mod:`repro.parallel` intact, so results
    equal the serial prepared path up to row order.
    """
    from ..parallel.executor import MODES, fan_out
    from ..parallel.merge import record_shards
    from ..parallel.partition import partition_timeline
    from ..parallel.worker import BatchShardTask
    from .columns import shard_row_ids

    if mode not in MODES:
        raise QueryError(f"unknown parallel mode {mode!r}; expected {MODES}")
    view = prepared.view(tau, stats=stats)
    record_reuse(prepared, view, stats)
    partition = partition_timeline(prepared.database, workers)
    assignments = shard_row_ids(view, partition.cuts, tau)
    replicated = sum(len(rids) for rids in assignments) - view.n_rows
    run_queries = [evaluation.query for evaluation in kernel_evals]
    tasks = [
        BatchShardTask(
            shard=shard,
            queries=run_queries,
            tau=tau,
            cuts=partition.cuts,
            columns=view.subset(rids),
            collect_stats=stats is not None,
        )
        for shard, rids in enumerate(assignments)
    ]
    n_procs = min(workers, len(tasks))
    outcomes = fan_out(tasks, n_procs, mode, stats)
    outcomes = sorted(outcomes, key=lambda outcome: outcome.shard)
    for position, evaluation in enumerate(kernel_evals):
        rows = [
            row
            for outcome in outcomes
            for row in outcome.rows_per_query[position]
        ]
        evaluation.result = JoinResultSet(evaluation.query.attrs, rows)
    if stats is not None:
        record_shards(stats, outcomes, n_procs, replicated)
