"""The kernel TIMEFIRST route: one interning pass, one flat sweep.

The kernel engine computes what
:func:`repro.algorithms.timefirst.timefirst_join` computes, on
:class:`~repro.kernels.columns.KernelColumns`. :func:`kernel_columns`
is the one answer to which columns a kernel read sweeps: a prepared
artifact's τ-view, or a cold read whose τ/2 shrink happens in rank
space, once per distinct endpoint (a query that needs the
r-hierarchical reduction goes through the shared
:func:`~repro.algorithms.timefirst.prepare_run` on object rows instead)
and whose event codes are sorted once per call. :func:`sweep_columns`
then runs the shared :func:`~repro.algorithms.timefirst.drive` loop
over a dynamic structure keyed on interned ints.

The serial, shard and batch routes read through :func:`kernel_columns`
(the batch fan-out shards the prepared τ-view itself), and every kernel
route sweeps through :func:`sweep_columns`. On hierarchical queries REPORT
builds each result once, final: de-interned and widened back by τ/2
inside the sweep. The GHD state emits interned rows, which one pass
(:func:`~repro.kernels.columns.deintern_expand`) turns into final rows.
:func:`make_state` + :func:`kernel_sweep` still return interned rows
with shrunk intervals, for callers that time the layers apart.
Output equality with the object path (normalized row sets, ``sweep.*`` /
``hier.*`` / ``ghd.*`` counters, ``phase.sweep`` timer) is the
correctness contract, pinned by the hypothesis equivalence suite.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from ..algorithms.timefirst import drive, needs_reduction, prepare_run
from ..core.interval import Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..obs import ExecutionStats
from .columns import (
    KernelColumns,
    build_columns,
    build_shrunk_columns,
    deintern_expand,
)

_POS_INF = float("inf")

#: Algorithms with a kernel fast path. Every other registered algorithm
#: silently ignores ``engine="kernel"`` (the dispatch layer strips the
#: kwarg rather than erroring — see ``registry.temporal_join``).
KERNEL_ALGORITHMS = frozenset({"timefirst"})


def supports_kernel(algorithm: str) -> bool:
    """True iff ``algorithm`` has a kernel fast path."""
    return algorithm in KERNEL_ALGORITHMS


def kernel_columns(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    stats: Optional[ExecutionStats] = None,
    prepared=None,
) -> Tuple[JoinQuery, KernelColumns]:
    """The run query and the columns a kernel read of ``query`` sweeps.

    The one answer for the serial, shard and batch routes. ``prepared``
    is the artifact the route reads
    (:attr:`repro.algorithms.registry.Route.prepared`, which is ``None``
    for a query that needs the r-hierarchical reduction): its cached
    τ-view restricted to the query's relations, with no interning and no
    sort (``prepared.reuse``). Without one the read is cold: validate
    ``query`` against ``database`` and τ/2-shrink in rank space
    (:func:`~repro.kernels.columns.build_shrunk_columns`), or, when the
    query needs the reduction, shrink and reduce object rows
    (:func:`prepare_run`) and intern those, since the reduction reads
    the shrunk rows.
    """
    if prepared is not None:
        query.validate(database)
        columns = prepared.columns_for(query, tau, stats=stats)
        record_reuse(prepared, columns, stats)
        return query, columns
    if needs_reduction(query):
        run_query, run_db = prepare_run(query, database, tau, stats=stats)
        return run_query, build_columns(run_db, stats=stats)
    query.validate(database)
    return query, build_shrunk_columns(database, tau, stats=stats)


def record_reuse(prepared, columns: KernelColumns, stats: Optional[ExecutionStats]) -> None:
    """Count one read of ``prepared`` and the ingest time it saved.

    ``phase.prepared.saved`` pro-rates the artifact's build time by the
    fraction of its rows ``columns`` holds.
    """
    if stats is None:
        return
    stats.incr("prepared.reuse")
    total = prepared.columns.n_rows
    if prepared.build_seconds and total:
        stats.add_time(
            "phase.prepared.saved",
            prepared.build_seconds * (columns.n_rows / total),
        )


def make_state(
    run_query: JoinQuery,
    columns: KernelColumns,
    stats: Optional[ExecutionStats] = None,
):
    """Select the kernel sweep state the way the object path does.

    The state emits interned rows with τ/2-shrunk intervals; the routes
    themselves sweep through :func:`sweep_columns`.
    """
    from .generic import KernelGenericState
    from .hierarchy import KernelHierarchicalState

    if run_query.is_hierarchical:
        return KernelHierarchicalState(run_query, columns, stats=stats)
    return KernelGenericState(run_query, columns, stats=stats)


def kernel_sweep(
    run_query: JoinQuery,
    columns: KernelColumns,
    state,
    stats: Optional[ExecutionStats] = None,
) -> JoinResultSet:
    """Algorithm 1 over pre-sorted event codes (interned output rows)."""
    out = JoinResultSet(run_query.attrs)
    if columns.n_rows == 0:
        if stats is not None:
            stats.incr("results", 0)
        return out
    return drive(
        columns.event_codes, columns.n_rows, state.insert_row, state.expire_row,
        out, stats,
    )


def sweep_columns(
    run_query: JoinQuery,
    columns: KernelColumns,
    tau: Number = 0,
    stats: Optional[ExecutionStats] = None,
) -> JoinResultSet:
    """Sweep τ/2-shrunk ``columns`` into final rows: de-interned and widened.

    Row for row equal to ``deintern_expand(columns.domains,
    kernel_sweep(...make_state(...)...), τ/2)`` — values, order and
    endpoint types. A hierarchical query builds each row once, inside
    the sweep, so ``phase.sweep`` includes decoding and widening there.
    """
    half = tau / 2 if tau else 0
    if run_query.is_hierarchical and 0 <= half < _POS_INF:
        from .hierarchy import KernelHierarchicalState

        state = KernelHierarchicalState(run_query, columns, stats=stats, half=half)
        return kernel_sweep(run_query, columns, state, stats=stats)
    state = make_state(run_query, columns, stats=stats)
    result = kernel_sweep(run_query, columns, state, stats=stats)
    return deintern_expand(columns.domains, result, half)
