"""The parallel execution engine: shard, fan out, merge exactly once.

:func:`parallel_temporal_join` runs *any* registered algorithm across
``workers`` shards:

1. on the kernel path, when one attribute occurs in every relation of
   the run query, :func:`~repro.kernels.columns.key_shard_row_ids`
   splits the rows by that attribute's value — shards that share no
   join result, so nothing is copied and nothing is filtered;
   otherwise :func:`~repro.parallel.partition.partition_timeline`
   places endpoint-balanced time cuts;
2. time shards replicate each tuple into every shard its interval
   overlaps (:func:`~repro.parallel.partition.shard_databases`, or
   :func:`~repro.kernels.columns.shard_row_ids` on the kernel path);
3. each shard evaluates the unmodified serial algorithm
   (:func:`~repro.parallel.worker.run_shard`); a time shard keeps only
   the results it owns under the exactly-once rule;
4. :func:`~repro.parallel.merge.merge_outcomes` concatenates.

The ``parallel.partition`` note records the choice: ``key:<attr>``, or
``time: <reason>`` (explicit cuts, no shared attribute, a heavy key, or
the object engine).

Execution modes
---------------
``"process"`` (default) dispatches the shard tasks to the resident
``spawn`` workers of :mod:`repro.parallel.pool` — safe under every
interpreter configuration; each shard task is pickled exactly once. The
workers start on the first process-mode call and are reused by every
later one, so the interpreter start (about 1 s) is paid once per
process, not once per call (``parallel.pool_started`` says which call
paid it). A worker that dies mid-shard raises
:class:`~repro.core.errors.WorkerError` instead of hanging, and the next
call starts fresh workers; interpreter exit terminates them.
``"inline"`` runs the identical shard tasks sequentially in the calling
process: same partitioning, same ownership filter, same merge, no
processes — the debugging and testing mode. ``workers=1`` always runs
inline (a single shard needs no pool).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from ..core.errors import QueryError
from ..core.interval import Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..obs import NULL_TRACER, Tracer
from .merge import merge_outcomes
from .partition import (
    TimePartition,
    partition_endpoints,
    partition_timeline,
    replication_factor,
    shard_databases,
)
from .pool import resident_pool
from .worker import ShardOutcome, ShardTask, run_shard

#: Execution modes accepted by :func:`parallel_temporal_join`.
MODES = ("process", "inline")


def parallel_temporal_join(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    algorithm: str = "auto",
    workers: int = 2,
    mode: str = "process",
    cuts: Optional[Sequence[Number]] = None,
    stats: Tracer = NULL_TRACER,
    engine: str = "auto",
    prepared=None,
    **kwargs,
) -> JoinResultSet:
    """Evaluate a τ-durable temporal join across ``workers`` shards.

    Parameters mirror :func:`repro.algorithms.registry.temporal_join`
    plus the parallel knobs:

    workers:
        Requested shard/worker count. The effective shard count may be
        lower when the endpoint distribution does not admit that many
        distinct time cuts; ``stats`` reports it as ``parallel.shards``.
    mode:
        ``"process"`` (spawn-based pool) or ``"inline"`` (sequential
        in-process execution of the same shard tasks).
    cuts:
        Explicit interior cut points: forces time shards and overrides
        the endpoint-balanced partitioner — for experiments and boundary
        tests.
    engine:
        As in :func:`~repro.algorithms.registry.temporal_join`. On the
        kernel path the parent interns the (shrunk, reduced) instance
        once and ships each worker pre-sorted interned columns instead
        of object rows; workers only sweep, de-intern and filter.
    prepared:
        Optional :class:`~repro.kernels.prepared.PreparedDatabase`
        matching ``database``. On the kernel path shard columns are
        sliced from the prepared τ-view instead of re-interning. The
        artifact is validated against ``database`` up front, as in
        ``temporal_join``.

    Returns the same :class:`JoinResultSet` (up to row order) as the
    serial ``temporal_join`` with the same arguments; the merge path
    performs no deduplication, relying on key-disjoint shards or the
    ownership rule.
    """
    from ..algorithms.registry import resolve_route

    route = resolve_route(
        query, database, tau, algorithm, stats=stats, workers=workers,
        engine=engine, prepared=prepared, kwargs=kwargs,
    )
    return run_sharded(route, query, database, tau, workers, mode, cuts, stats)


def run_sharded(
    route,
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number,
    workers: int,
    mode: str = "process",
    cuts: Optional[Sequence[Number]] = None,
    stats: Tracer = NULL_TRACER,
) -> JoinResultSet:
    """Shard, fan out and merge one :class:`~repro.algorithms.registry.Route`.

    A ``semijoin`` route (HYBRID picked by ``auto``) is reduced in the parent
    (:func:`~repro.kernels.columns.semijoin_database`) before its time
    cuts are placed, so cuts and shards see only the rows the pass keeps.
    """
    query.validate(database)
    if mode not in MODES:
        raise QueryError(f"unknown parallel mode {mode!r}; expected {MODES}")
    if route.engine == "kernel":
        tasks, replicated, choice = _kernel_shard_tasks(
            query, database, tau, route, workers, cuts, stats
        )
    else:
        if route.semijoin:
            from ..kernels.columns import semijoin_database

            database = semijoin_database(query, database, tau, stats)
        choice = "time: explicit cuts" if cuts is not None else "time: object engine"
        if cuts is not None:
            partition = TimePartition(tuple(cuts))
        else:
            partition = partition_timeline(database, workers)
        shard_dbs = shard_databases(database, partition)
        _, replicated = replication_factor(database, shard_dbs)
        tasks = [
            ShardTask(
                shard=i,
                query=query,
                database=shard_db,
                tau=tau,
                algorithm=route.name,
                cuts=partition.cuts,
                kwargs=dict(route.kwargs),
            )
            for i, shard_db in enumerate(shard_dbs)
        ]

    stats.note("parallel.partition", choice)
    n_procs = min(workers, len(tasks))
    outcomes = fan_out(tasks, n_procs, mode, stats)
    return merge_outcomes(
        query,
        outcomes,
        stats=stats,
        workers=n_procs,
        replicated=replicated,
    )


def _key_attributes(query: JoinQuery) -> List[str]:
    """Attributes occurring in every relation of ``query``, in output order."""
    hypergraph = query.hypergraph
    return [a for a in query.attrs if len(hypergraph.edges_of(a)) == len(hypergraph)]


def _kernel_shard_tasks(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number,
    route,
    workers: int,
    cuts: Optional[Sequence[Number]],
    stats: Tracer,
):
    """Build kernel-engine shard tasks: interned columns, no object rows.

    Returns ``(tasks, replicated, choice)``, ``choice`` being the
    ``parallel.partition`` note. The parent reads the columns *once*,
    through :func:`~repro.kernels.engine.kernel_columns`: the route's
    prepared τ-view restricted to the query's relations, or the instance
    validated, τ/2-shrunk in rank space (reduced if it must be) and
    interned — both after the temporal semijoin pass, so key weights and
    time cuts see only the rows it keeps.

    **Key shards** come first: when an attribute occurs in every
    relation of the run query, rows are split by its interned code
    (:func:`~repro.kernels.columns.key_shard_row_ids`). Every result
    binds that attribute to one value, so each shard holds all of its
    results' rows, no row is copied, and the tasks carry no cuts (no
    ownership filter). **Time shards** are the fallback — no such
    attribute, one key heavier than ``1/workers`` of the rows, or
    explicit ``cuts``: the cuts balance the kept rows' expanded
    (original) endpoints (:func:`~repro.kernels.columns.column_endpoints`),
    and each shard receives the column subset of every row whose
    expanded interval overlaps its window.
    Assignment by expanded intervals is what makes ownership exact: a
    result's endpoint owner sees all of the result's constituent rows
    (their expanded intervals each contain the expanded result
    endpoint).
    """
    from ..kernels import key_shard_row_ids, shard_row_ids
    from ..kernels.columns import column_endpoints
    from ..kernels.engine import kernel_columns

    run_query, columns = kernel_columns(
        query, database, tau, stats=stats, prepared=route.prepared
    )

    assignments = None
    if cuts is not None:
        choice = "time: explicit cuts"
    else:
        choice = "time: no shared attribute"
        for attr in _key_attributes(run_query):
            positions = {
                name: run_query.edge(name).index(attr)
                for name in run_query.edge_names
            }
            assignments = key_shard_row_ids(columns, positions, workers)
            if assignments is not None:
                choice = f"key:{attr}"
                break
            choice = "time: heavy key"
    if assignments is not None:
        shard_cuts = None
        replicated = 0
    else:
        if cuts is None:
            shard_cuts = partition_endpoints(column_endpoints(columns, tau), workers).cuts
        else:
            shard_cuts = TimePartition(tuple(cuts)).cuts
        assignments = shard_row_ids(columns, shard_cuts, tau)
        replicated = sum(len(rids) for rids in assignments) - columns.n_rows
    tasks = [
        ShardTask(
            shard=i,
            query=run_query,
            database=None,
            tau=tau,
            algorithm=route.name,
            cuts=shard_cuts,
            kwargs={},
            columns=columns.subset(rids),
        )
        for i, rids in enumerate(assignments)
    ]
    return tasks, replicated, choice


def fan_out(
    tasks: Sequence[ShardTask], n_procs: int, mode: str, stats: Tracer = NULL_TRACER
) -> Sequence[ShardOutcome]:
    """Run shard tasks on ``n_procs`` resident spawn workers, or inline.

    The one fan-out behind :func:`run_sharded`. ``spawn`` starts each
    worker from a fresh interpreter, so the payload :func:`run_shard`
    must stay importable as ``repro.parallel.worker.run_shard`` — the
    test suite's process-mode smoke test guards that. Worker exceptions
    re-raise here unchanged. ``"inline"`` mode, and a single process,
    run the tasks in order in the calling process.
    """
    if mode != "process" or n_procs <= 1:
        return [run_shard(task) for task in tasks]
    with resident_pool(n_procs) as pool:
        outcomes = pool.map(run_shard, tasks)
    stats.incr("parallel.pool_started", int(pool.started > 0))
    return outcomes
