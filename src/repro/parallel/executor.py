"""The parallel execution engine: shard, fan out, merge exactly once.

:func:`parallel_temporal_join` runs *any* registered algorithm across
``workers`` time shards:

1. :func:`~repro.parallel.partition.partition_timeline` places
   endpoint-balanced cuts;
2. :func:`~repro.parallel.partition.shard_databases` replicates each
   tuple into every shard its interval overlaps;
3. each shard evaluates the unmodified serial algorithm
   (:func:`~repro.parallel.worker.run_shard`) and keeps only the results
   it owns under the exactly-once rule;
4. :func:`~repro.parallel.merge.merge_outcomes` concatenates.

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

from typing import Mapping, Optional, Sequence

from ..core.errors import QueryError
from ..core.interval import Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..obs import ExecutionStats
from .merge import merge_outcomes
from .partition import (
    TimePartition,
    partition_timeline,
    replication_factor,
    shard_databases,
)
from .pool import resident_pool
from .worker import (
    BatchShardOutcome,
    BatchShardTask,
    ShardOutcome,
    ShardTask,
    run_batch_shard,
    run_shard,
)

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
    stats: Optional[ExecutionStats] = None,
    engine: str = "auto",
    prepared=None,
    **kwargs,
) -> JoinResultSet:
    """Evaluate a τ-durable temporal join across ``workers`` time shards.

    Parameters mirror :func:`repro.algorithms.registry.temporal_join`
    plus the parallel knobs:

    workers:
        Requested shard/worker count. The effective shard count may be
        lower when the endpoint distribution does not admit that many
        distinct cuts; ``stats`` reports it as ``parallel.shards``.
    mode:
        ``"process"`` (spawn-based pool) or ``"inline"`` (sequential
        in-process execution of the same shard tasks).
    cuts:
        Explicit interior cut points overriding the endpoint-balanced
        partitioner — for experiments and boundary tests.
    engine:
        As in :func:`~repro.algorithms.registry.temporal_join`. On the
        kernel path the parent interns the (shrunk, reduced) instance
        once and ships each worker pre-sorted interned columns instead
        of object rows; workers only sweep, de-intern and filter.
    prepared:
        Optional :class:`~repro.kernels.prepared.PreparedDatabase`
        matching ``database``. On the kernel path shard columns are
        sliced from the prepared τ-view instead of re-interning; the
        caller (``temporal_join``) has already validated the artifact.

    Returns the same :class:`JoinResultSet` (up to row order) as the
    serial ``temporal_join`` with the same arguments; the merge path
    performs no deduplication, relying on the ownership rule.
    """
    from ..algorithms.registry import (
        _check_engine,
        _check_tau,
        _engine_decision,
        _ensure_loaded,
        _resolve_auto,
    )

    _ensure_loaded()
    _check_tau(tau)
    _check_engine(engine)
    query.validate(database)
    if mode not in MODES:
        raise QueryError(f"unknown parallel mode {mode!r}; expected {MODES}")
    if workers < 1:
        raise QueryError(f"workers must be >= 1, got {workers}")
    if algorithm == "auto":
        if prepared is not None:
            choice = prepared.cached_plan(query, stats=stats)
            algorithm, _, kwargs = _resolve_auto(query, kwargs, choice=choice)
        else:
            algorithm, _, kwargs = _resolve_auto(query, kwargs)

    if cuts is not None:
        partition = TimePartition(tuple(cuts))
    else:
        partition = partition_timeline(database, workers)

    used_engine, fallback_reason = _engine_decision(algorithm, engine, kwargs)
    if fallback_reason is not None and stats is not None:
        stats.note("kernel.fallback_reason", fallback_reason)
    if used_engine == "kernel":
        tasks, replicated = _kernel_shard_tasks(
            query, database, tau, algorithm, partition, stats,
            prepared=prepared,
        )
    else:
        shard_dbs = shard_databases(database, partition)
        _, replicated = replication_factor(database, shard_dbs)
        tasks = [
            ShardTask(
                shard=i,
                query=query,
                database=shard_db,
                tau=tau,
                algorithm=algorithm,
                cuts=partition.cuts,
                kwargs=dict(kwargs),
                collect_stats=stats is not None,
            )
            for i, shard_db in enumerate(shard_dbs)
        ]

    n_procs = min(workers, len(tasks))
    if mode == "process" and n_procs > 1:
        outcomes = _run_pool(tasks, n_procs, stats)
    else:
        outcomes = [run_shard(task) for task in tasks]

    return merge_outcomes(
        query,
        outcomes,
        stats=stats,
        workers=n_procs,
        replicated=replicated,
    )


def _kernel_shard_tasks(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number,
    algorithm: str,
    partition: TimePartition,
    stats: Optional[ExecutionStats],
    prepared=None,
):
    """Build kernel-engine shard tasks: interned columns, no object rows.

    The instance is prepared (validated, τ/2-shrunk, reduced) and
    interned *once* in the parent — or, with a
    :class:`~repro.kernels.prepared.PreparedDatabase`, not at all: the
    artifact's cached τ-view restricted to the query's relations stands
    in for the cold ``prepare_run`` + ``build_columns`` pair (queries
    needing the per-query r-hierarchical reduction take the cold branch
    regardless). Each shard receives the column subset of every row
    whose expanded (original) interval overlaps its window, re-ranked
    locally with its own pre-sorted event codes. Assignment by expanded
    intervals is what makes ownership exact: a result's endpoint owner
    sees all of the result's constituent rows (their expanded intervals
    each contain the expanded result endpoint).
    """
    from ..kernels import build_columns, prepare_run, shard_row_ids
    from ..kernels.prepared import _record_reuse, needs_reduction

    if prepared is not None and not needs_reduction(query):
        run_query = query
        columns = prepared.columns_for(query, tau, stats=stats)
        _record_reuse(prepared, columns, stats)
    else:
        run_query, run_db = prepare_run(query, database, tau, stats=stats)
        columns = build_columns(run_db, stats=stats)
    assignments = shard_row_ids(columns, partition.cuts, tau)
    replicated = sum(len(rids) for rids in assignments) - columns.n_rows
    tasks = [
        ShardTask(
            shard=i,
            query=run_query,
            database=None,
            tau=tau,
            algorithm=algorithm,
            cuts=partition.cuts,
            kwargs={},
            collect_stats=stats is not None,
            columns=columns.subset(rids),
        )
        for i, rids in enumerate(assignments)
    ]
    return tasks, replicated


def _run_pool(
    tasks: Sequence[ShardTask], n_procs: int, stats: Optional[ExecutionStats]
) -> Sequence[ShardOutcome]:
    """Fan shard tasks out to ``n_procs`` resident spawn workers.

    ``spawn`` starts each worker from a fresh interpreter, so
    :func:`run_shard` must stay importable as
    ``repro.parallel.worker.run_shard`` — the test suite's process-mode
    smoke test guards that. Worker exceptions re-raise here unchanged.
    """
    with resident_pool(n_procs) as pool:
        outcomes = pool.map(run_shard, tasks)
    _count_pool_start(pool.started, stats)
    return outcomes


def run_batch_tasks(
    tasks: Sequence[BatchShardTask],
    n_procs: int,
    mode: str,
    stats: Optional[ExecutionStats] = None,
) -> Sequence[BatchShardOutcome]:
    """Execute a prepared batch's shard tasks (pool or inline).

    The batch counterpart of the fan-out inside
    :func:`parallel_temporal_join`: same resident workers, same inline
    debugging mode, one task per shard — but each task carries the whole
    query fleet, so the shard columns cross the process boundary once
    per *batch*. Called by :func:`repro.kernels.prepared.run_batch`.
    """
    if mode == "process" and n_procs > 1:
        with resident_pool(n_procs) as pool:
            outcomes = pool.map(run_batch_shard, tasks)
        _count_pool_start(pool.started, stats)
        return outcomes
    return [run_batch_shard(task) for task in tasks]


def _count_pool_start(started: int, stats: Optional[ExecutionStats]) -> None:
    if stats is not None:
        stats.incr("parallel.pool_started", int(started > 0))
