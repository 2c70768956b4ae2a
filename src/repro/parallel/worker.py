"""Shard worker: runs one serial algorithm on one shard.

:func:`run_task` is the function shipped to worker processes; it runs
a :class:`ShardTask` through :func:`run_shard` and a
:class:`BatchShardTask` through :func:`run_batch_shard`. All three are
plain module-level functions over picklable dataclasses, so they work
under every ``multiprocessing`` start method including ``spawn`` (where
the child interpreter imports this module fresh and receives the task by
pickle — nothing may depend on inherited parent state).

The worker evaluates the *unmodified* registered algorithm on its shard
sub-database, then, on a time shard, applies the ownership filter: only
results whose intersection interval ends inside the shard's owned range
survive (see :mod:`repro.parallel.partition`). Everything else is a
boundary duplicate that some neighbouring shard owns. A key shard (no
cuts) shares no result with any other shard and keeps all of its own.

:func:`serve_pipe` is the loop a resident worker process runs: it
receives ``(fn, task)`` pairs from :mod:`repro.parallel.pool` over one
pipe and answers each with ``(ok, value)``.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.errors import WorkerError
from ..core.interval import Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import ResultRow
from ..obs import ExecutionStats
from .partition import TimePartition


@dataclass
class ShardTask:
    """Everything one worker needs, pickled exactly once per shard.

    Two payload shapes: the object engine ships a shard sub-database
    (``database``); the kernel engine ships pre-interned columns
    (``columns`` — see :meth:`repro.kernels.KernelColumns.subset`) and
    leaves ``database`` ``None``, so no object rows cross the process
    boundary. On the kernel path ``query`` is the *run* query (already
    validated / τ-shrunk / r-hierarchically reduced by the parent) and
    the worker only sweeps, de-interns and expands.
    """

    shard: int
    query: JoinQuery
    database: Optional[Dict[str, TemporalRelation]]
    tau: Number
    algorithm: str
    #: Interior time cuts, or ``None`` for a key shard: its rows share no
    #: join result with any other shard's, so it keeps every result.
    cuts: Optional[Tuple[Number, ...]]
    kwargs: Dict = field(default_factory=dict)
    collect_stats: bool = False
    columns: Optional[object] = None  # repro.kernels.KernelColumns


@dataclass
class BatchShardTask:
    """One shard's share of a whole prepared-batch fan-out.

    The kernel-only sibling of :class:`ShardTask` used by
    :func:`repro.kernels.prepared.run_batch`: one column subset
    (``columns`` — the shard's slice of the prepared τ-view, all
    relations) plus *every* kernel-eligible run query of the batch. The
    worker restricts the shard columns per distinct relation subset
    locally and sweeps each query in turn, so the shard payload crosses
    the process boundary exactly once per batch instead of once per
    query — and, as always on the kernel path, contains no object rows.
    """

    shard: int
    queries: List[JoinQuery]
    tau: Number
    cuts: Tuple[Number, ...]
    columns: object  # repro.kernels.KernelColumns
    collect_stats: bool = False


@dataclass
class BatchShardOutcome:
    """One shard's owned rows for every query of a batch."""

    shard: int
    rows_per_query: List[List[ResultRow]]
    input_size: int
    seconds: float
    stats: Optional[ExecutionStats] = None

    @property
    def owned_results(self) -> int:
        """Rows this shard owns, summed over the batch's queries."""
        return sum(len(rows) for rows in self.rows_per_query)


@dataclass
class ShardOutcome:
    """One shard's owned results plus its execution profile."""

    shard: int
    rows: List[ResultRow]
    input_size: int
    raw_results: int
    owned_results: int
    seconds: float
    stats: Optional[ExecutionStats] = None


def run_shard(task: ShardTask) -> ShardOutcome:
    """Evaluate ``task`` and keep only the results this shard owns.

    A time shard owns the results whose intersection interval ends in
    its window; a key shard (``task.cuts is None``) owns all of its
    results.

    The algorithm is resolved from the registry *inside* the worker —
    functions are looked up by name rather than pickled, which keeps the
    payload small and spawn-safe. Exceptions propagate; the pool in
    :mod:`repro.parallel.executor` re-raises them in the parent.
    """
    stats = ExecutionStats() if task.collect_stats else None

    start = time.perf_counter()
    if task.columns is not None:
        result = _run_kernel_shard(task, stats)
        input_size = task.columns.n_rows
    else:
        from ..algorithms.registry import get_algorithm

        fn = get_algorithm(task.algorithm)
        kwargs = dict(task.kwargs)
        if stats is not None:
            kwargs["stats"] = stats
        result = fn(task.query, task.database, tau=task.tau, **kwargs)
        input_size = sum(len(rel) for rel in task.database.values())
    seconds = time.perf_counter() - start

    shard = task.shard
    if task.cuts is None:
        owned = result.rows  # key shard: every result it derives is its own
    else:
        owner = TimePartition(task.cuts).owner
        owned = [row for row in result.rows if owner(row[1].hi) == shard]
    return ShardOutcome(
        shard=shard,
        rows=owned,
        input_size=input_size,
        raw_results=len(result),
        owned_results=len(owned),
        seconds=seconds,
        stats=stats,
    )


def run_batch_shard(task: BatchShardTask) -> BatchShardOutcome:
    """Sweep every batch query over one shard's prepared columns.

    Mirrors the kernel arm of :func:`run_shard` query by query — sweep
    into final rows, ownership-filter — but reuses the
    shard's column payload (and its per-relation-subset restrictions)
    across the whole batch. Spawn-safe for the same reasons as
    :func:`run_shard`: module-level function, picklable dataclasses.
    """
    from ..kernels import sweep_columns

    partition = TimePartition(task.cuts)
    stats = ExecutionStats() if task.collect_stats else None
    shard = task.shard
    owner = partition.owner
    all_relations = set(task.columns.relations)

    start = time.perf_counter()
    restricted: Dict[Tuple[str, ...], object] = {}
    rows_per_query: List[List[ResultRow]] = []
    for query in task.queries:
        keep = tuple(sorted(query.edge_names))
        columns = restricted.get(keep)
        if columns is None:
            columns = (
                task.columns
                if set(keep) == all_relations
                else task.columns.restrict(keep)
            )
            restricted[keep] = columns
        result = sweep_columns(query, columns, task.tau, stats=stats)
        rows_per_query.append(
            [row for row in result.rows if owner(row[1].hi) == shard]
        )
    return BatchShardOutcome(
        shard=shard,
        rows_per_query=rows_per_query,
        input_size=task.columns.n_rows,
        seconds=time.perf_counter() - start,
        stats=stats,
    )


def run_task(task):
    """The one pool payload: run a :class:`ShardTask` or a :class:`BatchShardTask`."""
    if isinstance(task, BatchShardTask):
        return run_batch_shard(task)
    return run_shard(task)


def _run_kernel_shard(task: ShardTask, stats: Optional[ExecutionStats]):
    """Sweep one shard of pre-interned columns (kernel engine).

    The parent already validated, τ/2-shrunk and (if needed) reduced
    the instance before interning, so the worker's job is exactly the
    remaining pipeline: sweep the shard's pre-sorted event codes into
    rows de-interned via the shared domain tables and expanded back by
    τ/2. The ownership filter in :func:`run_shard` then sees the same
    expanded intervals the object path produces.
    """
    from ..kernels import sweep_columns

    return sweep_columns(task.query, task.columns, task.tau, stats=stats)


def serve_pipe(conn) -> None:
    """Resident worker loop: answer each ``(fn, task)`` with ``(ok, value)``.

    Runs in a spawn-started process until the parent closes its end of
    ``conn`` or terminates the process. ``ok`` is false when ``fn``
    raised, and ``value`` is then the exception. A task, result or
    exception that does not survive pickling is answered with a
    :class:`~repro.core.errors.WorkerError` instead, and the loop goes
    on. Interrupts are left to the parent, which stops its workers.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            fn, task = conn.recv()
        except (EOFError, OSError):
            return  # the parent closed its end or exited
        except Exception as exc:
            conn.send((False, WorkerError(f"task could not be unpickled: {exc!r}")))
            continue
        try:
            reply = (True, fn(task))
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send(reply)
        except OSError:
            return
        except Exception as exc:
            what = "result" if reply[0] else type(reply[1]).__name__
            name = getattr(fn, "__name__", repr(fn))
            message = f"{name}: its {what} could not be pickled: {exc!r}"
            conn.send((False, WorkerError(message)))
