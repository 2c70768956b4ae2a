"""Shard worker: runs one serial algorithm on one shard.

:func:`run_shard` is the function shipped to worker processes. It and
:class:`ShardTask` are a plain module-level function and a picklable
dataclass, so they work under every ``multiprocessing`` start method
including ``spawn`` (where the child interpreter imports this module
fresh and receives the task by pickle — nothing may depend on inherited
parent state).

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
from ..obs import NULL_TRACER, ExecutionStats
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
    the worker only sweeps, emitting de-interned, expanded rows.
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
    #: Record the shard's telemetry into its outcome's ``stats``.
    collect_stats: bool = True
    columns: Optional[object] = None  # repro.kernels.KernelColumns


@dataclass
class ShardOutcome:
    """One shard's owned results plus its execution profile."""

    shard: int
    rows: List[ResultRow]
    input_size: int
    raw_results: int
    owned_results: int
    seconds: float
    #: The shard's telemetry; empty unless its task collected it.
    stats: ExecutionStats = field(default_factory=ExecutionStats)


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
    recorded = ExecutionStats()
    tracer = recorded if task.collect_stats else NULL_TRACER

    start = time.perf_counter()
    if task.columns is not None:
        # The parent validated, τ/2-shrunk, reduced and interned the
        # instance; the shard only sweeps its columns into expanded rows.
        from ..kernels import sweep_columns

        result = sweep_columns(task.query, task.columns, task.tau, stats=tracer)
        input_size = task.columns.n_rows
    else:
        from ..algorithms.registry import get_algorithm

        fn = get_algorithm(task.algorithm)
        result = fn(task.query, task.database, tau=task.tau, stats=tracer, **task.kwargs)
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
        stats=recorded,
    )


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
