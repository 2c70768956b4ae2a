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
        sliced from the prepared τ-view instead of re-interning; the
        caller (``temporal_join``) has already validated the artifact.

    Returns the same :class:`JoinResultSet` (up to row order) as the
    serial ``temporal_join`` with the same arguments; the merge path
    performs no deduplication, relying on key-disjoint shards or the
    ownership rule.
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

    used_engine, fallback_reason = _engine_decision(algorithm, engine, kwargs)
    if fallback_reason is not None and stats is not None:
        stats.note("kernel.fallback_reason", fallback_reason)
    if used_engine == "kernel":
        tasks, replicated, choice = _kernel_shard_tasks(
            query, database, tau, algorithm, workers, cuts, stats,
            prepared=prepared,
        )
    else:
        choice = "time: explicit cuts" if cuts is not None else "time: object engine"
        partition = _time_partition(database, workers, cuts)
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

    if stats is not None:
        stats.note("parallel.partition", choice)
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


def _time_partition(
    database: Mapping[str, TemporalRelation],
    workers: int,
    cuts: Optional[Sequence[Number]],
) -> TimePartition:
    """The caller's ``cuts``, else endpoint-balanced cuts of ``database``."""
    if cuts is not None:
        return TimePartition(tuple(cuts))
    return partition_timeline(database, workers)


def _key_attributes(query: JoinQuery) -> List[str]:
    """Attributes occurring in every relation of ``query``, in output order."""
    hypergraph = query.hypergraph
    return [a for a in query.attrs if len(hypergraph.edges_of(a)) == len(hypergraph)]


def _kernel_shard_tasks(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number,
    algorithm: str,
    workers: int,
    cuts: Optional[Sequence[Number]],
    stats: Optional[ExecutionStats],
    prepared=None,
):
    """Build kernel-engine shard tasks: interned columns, no object rows.

    Returns ``(tasks, replicated, choice)``, ``choice`` being the
    ``parallel.partition`` note. The instance is prepared (validated,
    τ/2-shrunk in rank space, reduced) and interned *once* in the parent
    by :func:`~repro.kernels.engine.cold_columns` — or, with a
    :class:`~repro.kernels.prepared.PreparedDatabase`, not at all: the
    artifact's cached τ-view restricted to the query's relations stands
    in for it (queries needing the per-query r-hierarchical reduction
    take the cold branch regardless).

    **Key shards** come first: when an attribute occurs in every
    relation of the run query, rows are split by its interned code
    (:func:`~repro.kernels.columns.key_shard_row_ids`). Every result
    binds that attribute to one value, so each shard holds all of its
    results' rows, no row is copied, and the tasks carry no cuts (no
    ownership filter). **Time shards** are the fallback — no such
    attribute, one key heavier than ``1/workers`` of the rows, or
    explicit ``cuts``: each shard receives the column subset of every
    row whose expanded (original) interval overlaps its window.
    Assignment by expanded intervals is what makes ownership exact: a
    result's endpoint owner sees all of the result's constituent rows
    (their expanded intervals each contain the expanded result
    endpoint).
    """
    from ..kernels import key_shard_row_ids, shard_row_ids
    from ..kernels.engine import cold_columns, needs_reduction
    from ..kernels.prepared import _record_reuse

    if prepared is not None and not needs_reduction(query):
        run_query = query
        columns = prepared.columns_for(query, tau, stats=stats)
        _record_reuse(prepared, columns, stats)
    else:
        run_query, columns = cold_columns(query, database, tau, stats=stats)

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
        shard_cuts = _time_partition(database, workers, cuts).cuts
        assignments = shard_row_ids(columns, shard_cuts, tau)
        replicated = sum(len(rids) for rids in assignments) - columns.n_rows
    tasks = [
        ShardTask(
            shard=i,
            query=run_query,
            database=None,
            tau=tau,
            algorithm=algorithm,
            cuts=shard_cuts,
            kwargs={},
            collect_stats=stats is not None,
            columns=columns.subset(rids),
        )
        for i, rids in enumerate(assignments)
    ]
    return tasks, replicated, choice


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
