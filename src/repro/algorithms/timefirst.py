"""TIMEFIRST (Algorithm 1): the sweep framework for temporal joins.

The driver is agnostic to the dynamic structure ``D``: any object
implementing :class:`SweepState` can be plugged in. Two states ship with
the library —

* :class:`~repro.algorithms.hierarchical.HierarchicalState` for
  (r-)hierarchical queries (Section 3.2, ``O(N log N + K)``), and
* :class:`~repro.algorithms.generic_state.GenericGHDState` for arbitrary
  queries (Section 3.3, ``O(N^(fhtw+1) + K)``).

:func:`drive` is the one sweep loop: the object :func:`sweep` (TIMEFIRST
and HYBRID's bag sweep) and the kernel engine's
:func:`~repro.kernels.engine.kernel_sweep` both run it over the event
codes of :mod:`repro.algorithms.events`.

The public entry points below also handle the τ-durable reduction (shrink
inputs by τ/2, expand result intervals back) so callers never deal with
the transform directly.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, List, Mapping, Optional, Protocol, Tuple

import numpy as np

from ..core.durability import shrink_database
from ..core.errors import InvariantError
from ..core.interval import Interval, Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..obs import NULL_TRACER, Tracer
from .events import event_codes
from .generic_state import GenericGHDState
from .hierarchical import HierarchicalState

Values = Tuple[object, ...]


class SweepState(Protocol):
    """The dynamic structure ``D`` maintained by the sweep.

    Implementations own their output: ``enumerate_results`` appends every
    temporal join result involving the expiring tuple directly to the
    result set handed to them (avoiding per-call list churn).
    """

    def insert(self, relation: str, values: Values, interval: Interval) -> None:
        """Algorithm 1, line 6."""
        ...

    def enumerate_results(
        self,
        relation: str,
        values: Values,
        interval: Interval,
        out: JoinResultSet,
    ) -> None:
        """Algorithm 1, line 8 — results participated by the expiring tuple."""
        ...

    def delete(self, relation: str, values: Values, interval: Interval) -> None:
        """Algorithm 1, line 9."""
        ...

    def record(self, inserts: int, deletes: int, rows: int) -> None:
        """Record the structure's counters into the state's tracer, once.

        Called after a sweep (or, online, after each public call) with
        the INSERTs, DELETEs and emitted result rows since the last
        call, so the per-operation hooks above make no tracer call.
        """
        ...


def drive(
    codes: List[int],
    n: int,
    insert_row: Callable[[int], None],
    expire_row: Callable[[int, JoinResultSet], None],
    out: JoinResultSet,
    stats: Tracer = NULL_TRACER,
) -> JoinResultSet:
    """Algorithm 1's loop over the sorted event ``codes`` of ``n`` rows.

    The one sweep loop of every TIMEFIRST route: an INSERT code calls
    ``insert_row(row)``, an EXPIRE code ``expire_row(row, out)``, which
    enumerates the row's results into ``out`` and deletes it (see
    :mod:`repro.algorithms.events` for the encoding).

    The loop runs under the ``phase.sweep`` timer and the counters
    follow from the codes alone: ``sweep.events`` (``2N``),
    ``sweep.inserts`` and ``sweep.enumerate_calls`` (``N`` each),
    ``sweep.active_peak`` (the peak of the running +1/-1 sum over
    INSERT/EXPIRE codes, computed only by a recording tracer) and the
    final ``results`` count.
    """
    with stats.timer("phase.sweep"):
        for code in codes:
            if (code // n) & 1:
                expire_row(code % n, out)
            else:
                insert_row(code % n)
    events = len(codes)
    stats.incr("sweep.events", events)
    stats.incr("sweep.inserts", events // 2)
    stats.incr("sweep.enumerate_calls", events // 2)
    stats.derive(_record_active_peak, codes, n)
    stats.incr("results", len(out))
    return out


def _record_active_peak(stats: Tracer, codes: List[int], n: int) -> None:
    """``sweep.active_peak``: the running +1/-1 sum's peak over ``codes``."""
    if codes:
        kinds = (np.array(codes, dtype=np.int64) // n) & 1
        stats.peak("sweep.active_peak", int(np.cumsum(1 - 2 * kinds).max()))


def sweep(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    state: SweepState,
    stats: Tracer = NULL_TRACER,
) -> JoinResultSet:
    """Run Algorithm 1 with the supplied dynamic structure.

    The database is assumed already shrunk if a durability threshold
    applies; use :func:`timefirst_join` for the full τ-aware entry point.
    Rows are numbered in database order and encoded once (the
    ``phase.events`` timer); :func:`drive` then replays them into
    ``state``'s INSERT / ENUMERATE / DELETE operations and records the
    ``sweep.*`` counters, and the state records its own.
    """
    with stats.timer("phase.events"):
        rows = [
            (name, values, interval)
            for name in database
            for values, interval in database[name]
        ]
        codes = event_codes(list(map(itemgetter(2), rows)))
    insert = state.insert
    enumerate_results = state.enumerate_results
    delete = state.delete

    def insert_row(rid: int) -> None:
        insert(*rows[rid])

    def expire_row(rid: int, out: JoinResultSet) -> None:
        name, values, interval = rows[rid]
        enumerate_results(name, values, interval, out)
        delete(name, values, interval)

    out = drive(
        codes, len(rows), insert_row, expire_row, JoinResultSet(query.attrs), stats
    )
    state.record(len(rows), len(rows), len(out))
    return out


def sweep_state(query: JoinQuery, stats: Tracer = NULL_TRACER) -> SweepState:
    """The dynamic structure Section 3 picks for ``query``.

    :class:`~repro.algorithms.hierarchical.HierarchicalState` (§3.2) for
    a hierarchical query, else
    :class:`~repro.algorithms.generic_state.GenericGHDState` (§3.3). The
    one object-side choice: TIMEFIRST, HYBRID's bag sweep and
    :class:`~repro.algorithms.online.OnlineTemporalJoin` all call it
    (:func:`repro.kernels.engine.make_state` is its kernel twin). Both
    states add their counters to ``stats``.
    """
    if query.is_hierarchical:
        return HierarchicalState(query, stats=stats)
    return GenericGHDState(query, stats=stats)


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
    stats: Optional[Tracer] = None,
) -> Tuple[JoinQuery, Mapping[str, TemporalRelation]]:
    """Validate, τ/2-shrink and (if r-hierarchical) reduce the instance.

    Returns the (query, database) pair the sweep actually runs on. The
    one shrink-and-reduce step of TIMEFIRST: :func:`timefirst_join`
    calls it, and so does the kernel engine for queries that need the
    reduction, which reads shrunk object rows. Relations of ``database``
    that the query does not use are not read, and each relation is read
    in its edge's attribute order (:meth:`JoinQuery.relations_of`).
    """
    stats = NULL_TRACER if stats is None else stats
    from ..core.classification import reduce_instance

    query.validate(database)
    database = query.relations_of(database)
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


def timefirst_join(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    state_factory: Optional[object] = None,
    stats: Optional[Tracer] = None,
) -> JoinResultSet:
    """τ-durable temporal join via TIMEFIRST with an auto-selected state.

    Selection follows Section 3 (:func:`sweep_state`): hierarchical
    queries (after linear-time reduction when merely r-hierarchical,
    :func:`prepare_run`) use the attribute-tree structure; everything
    else uses the GHD-based generic state.

    ``state_factory`` overrides the choice: a callable
    ``(query, database) -> SweepState``, called on the run pair of
    :func:`prepare_run` (shrunk, and reduced when r-hierarchical).
    ``stats`` opts into execution telemetry (see :mod:`repro.obs`); it
    is handed to the sweep and to the built-in states, which add their
    structure-level counters.
    """
    stats = NULL_TRACER if stats is None else stats
    run_query, run_db = prepare_run(query, database, tau, stats=stats)
    if state_factory is not None:
        state = state_factory(run_query, run_db)  # type: ignore[operator]
    else:
        state = sweep_state(run_query, stats)
    result = sweep(run_query, run_db, state, stats=stats)
    if tuple(result.attrs) != tuple(query.attrs):  # pragma: no cover - defensive
        raise InvariantError("sweep returned unexpected attribute layout")
    return result.expand_intervals(tau / 2 if tau else 0)
