"""The kernel TIMEFIRST driver: one interning pass, one flat sweep.

:func:`kernel_timefirst_join` mirrors
:func:`repro.algorithms.timefirst.timefirst_join` step for step —
validate, τ/2-shrink, r-hierarchical reduction, state selection, sweep,
τ/2-expand — but runs on :class:`~repro.kernels.columns.KernelColumns`:
the τ/2 shrink happens in rank space, once per distinct endpoint (object
rows are shrunk only for the r-hierarchical reduction), the event stream
is flattened and sorted exactly once per call into int codes, and the
dynamic structure is keyed on interned ints.

Every kernel route — cold, prepared, and both worker shard paths —
sweeps through :func:`sweep_columns`. On hierarchical queries REPORT
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

from ..core.durability import shrink_database
from ..core.errors import InvariantError
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


def needs_reduction(query: JoinQuery) -> bool:
    """True iff TIMEFIRST on ``query`` rewrites the *instance* first.

    Merely-r-hierarchical queries go through the footnote-2 reduction,
    which drops rows per query: such a query shrinks and reduces object
    rows (:func:`prepare_run`), and cannot share prepared columns.
    """
    return (not query.is_hierarchical) and query.is_r_hierarchical


def prepare_run(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    stats: Optional[ExecutionStats] = None,
) -> Tuple[JoinQuery, Mapping[str, TemporalRelation]]:
    """Validate, τ/2-shrink and (if r-hierarchical) reduce the instance.

    Returns the (query, database) pair the sweep actually runs on — the
    same pair the object path's ``timefirst_join`` would construct.
    :func:`cold_columns` calls it for queries that need the reduction,
    which reads shrunk object rows.
    """
    from ..core.classification import reduce_instance

    query.validate(database)
    if stats is None:
        db = shrink_database(database, tau)
    else:
        with stats.timer("phase.shrink"):
            db = shrink_database(database, tau)
    if not needs_reduction(query):
        return query, db
    reduced_hg, reduced_db = reduce_instance(query.hypergraph, db)
    # Keep the original output attribute order: reduction never removes
    # attributes, only edges.
    run_query = JoinQuery(
        {n: reduced_hg.edge(n) for n in reduced_hg.edge_names},
        attr_order=query.attrs,
    )
    return run_query, reduced_db


def cold_columns(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    stats: Optional[ExecutionStats] = None,
) -> Tuple[JoinQuery, KernelColumns]:
    """The run query and its columns for a kernel call without prepared columns.

    Validates ``query`` against ``database`` and τ/2-shrinks in rank
    space (:func:`~repro.kernels.columns.build_shrunk_columns`). A query
    that needs the r-hierarchical instance reduction shrinks and reduces
    object rows instead (:func:`prepare_run`), since the reduction reads
    the shrunk rows.
    """
    if needs_reduction(query):
        run_query, run_db = prepare_run(query, database, tau, stats=stats)
        return run_query, build_columns(run_db, stats=stats)
    query.validate(database)
    return query, build_shrunk_columns(database, tau, stats=stats)


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
    n = columns.n_rows
    if n == 0:
        if stats is not None:
            stats.incr("results", 0)
        return out
    codes = columns.event_codes
    insert_row = state.insert_row
    expire_row = state.expire_row
    if stats is None:
        for code in codes:
            if (code // n) & 1:
                expire_row(code % n, out)
            else:
                insert_row(code % n)
        return out
    active = peak = inserts = 0
    with stats.timer("phase.sweep"):
        for code in codes:
            if (code // n) & 1:
                expire_row(code % n, out)
                active -= 1
            else:
                inserts += 1
                active += 1
                if active > peak:
                    peak = active
                insert_row(code % n)
    stats.incr("sweep.events", len(codes))
    stats.incr("sweep.inserts", inserts)
    stats.incr("sweep.enumerate_calls", len(codes) - inserts)
    stats.peak("sweep.active_peak", peak)
    stats.incr("results", len(out))
    return out


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


def kernel_timefirst_join(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    stats: Optional[ExecutionStats] = None,
) -> JoinResultSet:
    """τ-durable TIMEFIRST on the columnar kernel substrate.

    Drop-in equivalent of the object path's ``timefirst_join`` (modulo
    ``state_factory``, which forces the object engine): same counters,
    same normalized results, one event sort per call.
    """
    run_query, columns = cold_columns(query, database, tau, stats=stats)
    result = sweep_columns(run_query, columns, tau, stats=stats)
    if tuple(result.attrs) != tuple(query.attrs):  # pragma: no cover - defensive
        raise InvariantError("kernel sweep returned unexpected attribute layout")
    return result
