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

* **Temporal semijoin.** Every read :func:`kernel_columns` returns has
  been through one query-aware pass on integer arrays: a row stays only
  if, in every relation sharing attributes with its own, some row with
  the same shared values meets its τ/2-shrunk interval. Cold reads run
  it before the kept rows are encoded and their event codes sorted;
  prepared reads derive the kept rows with ``subset``. The rows a
  Figure-8 instance dangles on never reach the sweep. The object engine
  sweeps unreduced, as the paper's TIMEFIRST does; only when the
  ``auto`` route picks HYBRID does it give the algorithm the rows the
  same pass keeps (:func:`~repro.kernels.columns.semijoin_database`).

The serial, shard and batch routes read through :func:`kernel_columns`,
and every kernel route sweeps through :func:`sweep_columns`. There is
one emission contract: the state :func:`make_state` builds with
``half=τ/2`` appends each result once, final — values de-interned and
endpoints widened back by τ/2 inside the sweep — whether it is the
hierarchical state's REPORT, the GHD state's join-tree walk or its
Yannakakis pass over bags. Without ``half``, :func:`make_state` +
:func:`kernel_sweep` return interned rows with shrunk intervals, for
callers that time the layers apart.
Every route's rows equal ``naive``'s (``tests/test_route_matrix.py``,
one row per route); row order and endpoint types are pinned by
``tests/test_emission_exactness.py`` and ``tests/test_fused_emission.py``,
and the ``sweep.*`` / ``hier.*`` / ``ghd.*`` counters by
``tests/test_kernel_engine.py``.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from ..algorithms.timefirst import drive, needs_reduction, prepare_run
from ..core.errors import QueryError
from ..core.interval import Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..obs import NULL_TRACER, Tracer
from .columns import KernelColumns, query_columns, semijoin_columns

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
    stats: Tracer = NULL_TRACER,
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
    (:func:`~repro.kernels.columns.query_columns`), or, when the query
    needs the reduction, shrink and reduce object rows
    (:func:`prepare_run`) and intern those, since the reduction reads
    the shrunk rows. Only the query's relations are read.

    Every read ends with the temporal semijoin pass
    (:func:`~repro.kernels.columns.semijoin_keep`): rows with no
    same-key partner meeting their shrunk interval in some neighbouring
    relation are dropped — on cold reads before they are encoded and
    sorted, on prepared reads by a sort-free
    :func:`~repro.kernels.columns.semijoin_columns`.
    """
    if prepared is not None:
        query.validate(database)
        columns = prepared.columns_for(query, tau, stats=stats)
        record_reuse(prepared, columns, stats)
        return query, semijoin_columns(query, columns, stats)
    if needs_reduction(query):
        run_query, run_db = prepare_run(query, database, tau, stats=stats)
        return run_query, query_columns(run_query, run_db, 0, stats=stats)
    query.validate(database)
    return query, query_columns(query, database, tau, stats=stats)


def record_reuse(prepared, columns: KernelColumns, stats: Tracer) -> None:
    """Count one read of ``prepared`` and the ingest time it saved.

    ``phase.prepared.saved`` pro-rates the artifact's build time by the
    fraction of its rows ``columns`` holds.
    """
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
    stats: Optional[Tracer] = None,
    half: Optional[Number] = None,
):
    """Select the kernel sweep state the way the object path does.

    With ``half`` (τ/2, finite) the state emits final rows: values
    decoded through ``columns.domains`` and finite endpoints widened by
    ``half``, each row built once inside the sweep. Without it the
    state emits interned rows with τ/2-shrunk intervals.
    """
    stats = NULL_TRACER if stats is None else stats
    from .generic import KernelGenericState
    from .hierarchy import KernelHierarchicalState

    if half is not None and not 0 <= half < _POS_INF:
        raise QueryError(f"half must be finite and >= 0, got {half!r}")
    if run_query.is_hierarchical:
        return KernelHierarchicalState(run_query, columns, stats=stats, half=half)
    return KernelGenericState(run_query, columns, stats=stats, half=half)


def kernel_sweep(
    run_query: JoinQuery,
    columns: KernelColumns,
    state,
    stats: Optional[Tracer] = None,
) -> JoinResultSet:
    """Algorithm 1 over pre-sorted event codes (interned output rows).

    ``state`` records its own counters into the tracer it was built with.
    """
    stats = NULL_TRACER if stats is None else stats
    out = JoinResultSet(run_query.attrs)
    if columns.n_rows == 0:
        stats.incr("results", 0)
        return out
    drive(
        columns.event_codes, columns.n_rows, state.insert_row, state.expire_row,
        out, stats,
    )
    state.record(columns.n_rows, columns.n_rows, len(out))
    return out


def sweep_columns(
    run_query: JoinQuery,
    columns: KernelColumns,
    tau: Number = 0,
    stats: Tracer = NULL_TRACER,
) -> JoinResultSet:
    """Sweep τ/2-shrunk ``columns`` into final rows: de-interned and widened.

    Row for row equal to ``deintern_results(columns.domains,
    kernel_sweep(...make_state(...)...)).expand_intervals(τ/2)`` —
    values, order and endpoint types — but each row is built once,
    inside the sweep, so ``phase.sweep`` includes decoding and widening.
    """
    half = tau / 2 if tau else 0
    state = make_state(run_query, columns, stats=stats, half=half)
    return kernel_sweep(run_query, columns, state, stats=stats)
