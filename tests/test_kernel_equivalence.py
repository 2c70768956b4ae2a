"""Hypothesis: kernel and object engines are observationally identical.

Satellite property suite: for randomly drawn instances —
including duplicate endpoint values, zero-length intervals and infinite
endpoints — ``engine="kernel"`` and ``engine="object"`` produce the same
normalized :class:`~repro.core.result.JoinResultSet` for every
registered algorithm, for τ ∈ {0, >0}, and for workers ∈ {1, 3}.

Instances are deliberately tiny (≤ 6 tuples per relation, domain of 3,
endpoints in a dozen-value range) so that endpoint collisions and
boundary coincidences are the *common* case, not the rare one.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import temporal_join  # noqa: E402
from repro.algorithms.registry import available_algorithms  # noqa: E402
from repro.core.errors import PlanError, QueryError  # noqa: E402
from repro.core.interval import Interval  # noqa: E402
from repro.core.query import JoinQuery  # noqa: E402
from repro.core.relation import TemporalRelation  # noqa: E402

QUERIES = (
    JoinQuery.line(3),   # acyclic, non-hierarchical -> generic kernel state
    JoinQuery.star(3),   # hierarchical -> hierarchical kernel state
    JoinQuery.triangle(),  # cyclic -> generic kernel state over a GHD
)

_INF = float("inf")

# Endpoints are drawn from a small integer range plus +/-inf so that
# duplicate endpoints, instantaneous intervals and unbounded intervals
# all occur frequently.
_lo = st.one_of(st.integers(min_value=-4, max_value=6), st.just(-_INF))
_dur = st.one_of(st.integers(min_value=0, max_value=5), st.just(_INF))


@st.composite
def _instance(draw):
    query = draw(st.sampled_from(QUERIES))
    database = {}
    for name in query.edge_names:
        attrs = query.edge(name)
        raw = draw(
            st.lists(
                st.tuples(
                    st.tuples(*[st.integers(0, 2) for _ in attrs]),
                    _lo,
                    _dur,
                ),
                min_size=0,
                max_size=6,
            )
        )
        rows, seen = [], set()
        for values, lo, dur in raw:
            if values in seen:  # relations are sets of value tuples
                continue
            seen.add(values)
            hi = _INF if dur == _INF else (dur if lo == -_INF else lo + dur)
            rows.append((values, Interval(lo, hi)))
        database[name] = TemporalRelation(name, attrs, rows)
    return query, database


@settings(max_examples=60, deadline=None)
@given(instance=_instance(), tau=st.sampled_from([0, 3]))
def test_kernel_matches_object_serial(instance, tau):
    query, database = instance
    want = temporal_join(
        query, database, tau=tau, algorithm="timefirst", engine="object"
    ).normalized()
    got = temporal_join(
        query, database, tau=tau, algorithm="timefirst", engine="kernel"
    ).normalized()
    assert got == want


@settings(max_examples=30, deadline=None)
@given(instance=_instance(), tau=st.sampled_from([0, 3]))
def test_kernel_matches_object_parallel(instance, tau):
    query, database = instance
    want = temporal_join(
        query, database, tau=tau, algorithm="timefirst", engine="object"
    ).normalized()
    for workers in (1, 3):
        got = temporal_join(
            query, database, tau=tau, algorithm="timefirst", engine="kernel",
            workers=workers, parallel_mode="inline",
        ).normalized()
        assert got == want, workers


@settings(max_examples=25, deadline=None)
@given(instance=_instance(), tau=st.sampled_from([0, 3]))
def test_engine_kwarg_uniform_across_registry(instance, tau):
    """``engine="kernel"`` is accepted by *every* registered algorithm
    and never changes its answer (algorithms without a fast path strip
    it and run unchanged)."""
    query, database = instance
    for algorithm in available_algorithms():
        try:
            want = temporal_join(
                query, database, tau=tau, algorithm=algorithm, engine="object"
            ).normalized()
        except (PlanError, QueryError):
            # e.g. timefirst-cm on a non-hierarchical query, or
            # hybrid-interval on a cyclic one; the engine kwarg must not
            # change *that* outcome either.
            with pytest.raises((PlanError, QueryError)):
                temporal_join(
                    query, database, tau=tau, algorithm=algorithm,
                    engine="kernel",
                )
            continue
        got = temporal_join(
            query, database, tau=tau, algorithm=algorithm, engine="kernel"
        ).normalized()
        assert got == want, algorithm


# ----------------------------------------------------------------------
# The temporal semijoin pass of kernel reads.
# ----------------------------------------------------------------------
#: REPORT enumerates insertion-ordered leaf buckets on these shapes, so
#: the reduced read emits the unreduced read's rows in its order.
ORDER_STABLE = (
    JoinQuery.star(2),
    JoinQuery.star(3),
    JoinQuery({"R0": ("y",), "R1": ("x1", "y"), "R2": ("x2", "y")}),
)
#: A case-3 member set, GHD key sets and the r-hierarchical reduction:
#: the same rows, in an order that may follow hash-table history.
ANY_ORDER = (
    JoinQuery.line(3),
    JoinQuery.triangle(),
    JoinQuery({"R1": ("a", "b", "c"), "R2": ("a", "b"), "R3": ("a", "d")}),
    JoinQuery({"Big": ("a", "b", "c"), "Left": ("a", "b"), "Right": ("b", "c")}),
)

#: Values and endpoints that compare equal across types.
_value = st.sampled_from([0, 1, 1.0, True, 2, 2.0])
_start = st.one_of(st.sampled_from([-2, 0, 1, 1.0, 2, 3, 3.0, 5]), st.just(-_INF))
_length = st.one_of(st.sampled_from([0, 0, 1, 2, 2.0, 4]), st.just(_INF))


@st.composite
def _semijoin_instance(draw):
    query = draw(st.sampled_from(ORDER_STABLE + ANY_ORDER))
    database = {}
    for name in query.edge_names:
        attrs = query.edge(name)
        raw = draw(st.lists(
            st.tuples(st.tuples(*[_value for _ in attrs]), _start, _length),
            max_size=7,
        ))
        rows, seen = [], set()
        for values, lo, length in raw:
            if values in seen:
                continue
            seen.add(values)
            hi = _INF if length == _INF else (length if lo == -_INF else lo + length)
            rows.append((values, Interval(lo, hi)))
        database[name] = TemporalRelation(name, attrs, rows)
    return query, database


def _typed(rows):
    return [(tuple(map(repr, values)), repr(iv.lo), repr(iv.hi)) for values, iv in rows]


def _unreduced(query, database, tau):
    """The kernel read without the pass: the route before it existed."""
    from repro.algorithms.timefirst import needs_reduction, prepare_run
    from repro.kernels.columns import build_columns, build_shrunk_columns
    from repro.kernels.engine import sweep_columns

    if needs_reduction(query):
        run_query, run_db = prepare_run(query, database, tau)
        return sweep_columns(run_query, build_columns(run_db), tau)
    return sweep_columns(query, build_shrunk_columns(database, tau), tau)


@settings(max_examples=150, deadline=None)
@given(instance=_semijoin_instance(), tau=st.sampled_from([0, 0, 1, 3]))
def test_semijoin_pass_is_exact_and_keeps_rows_and_order(instance, tau):
    from repro import ExecutionStats, prepare
    from repro.algorithms.naive import naive_join
    from repro.algorithms.timefirst import needs_reduction
    from repro.kernels.engine import kernel_columns, sweep_columns

    query, database = instance
    want = naive_join(query, database, tau=tau)
    stats = ExecutionStats()
    got = temporal_join(query, database, tau, algorithm="timefirst",
                        engine="kernel", stats=stats)
    assert got.normalized() == want.normalized()

    # No dropped row is a constituent of any result.
    if not needs_reduction(query):
        run_query, columns = kernel_columns(query, database, tau)
        kept = {
            (name, tuple(columns.domains[a][c] for a, c in zip(query.edge(name), values)))
            for name, values in zip(columns.row_relation, columns.row_values)
        }
        for values, _ in want:
            row = dict(zip(want.attrs, values))
            for name in query.edge_names:
                assert (name, tuple(row[a] for a in query.edge(name))) in kept

    # The unreduced read's rows, with its value and endpoint types; in
    # its order where REPORT's enumeration does not depend on history.
    parent = _typed(_unreduced(query, database, tau))
    if query in ORDER_STABLE:
        assert _typed(got) == parent
    else:
        assert sorted(_typed(got)) == sorted(parent)
    # Likewise for a prepared read against its unreduced τ-view sweep.
    if not needs_reduction(query):
        artifact = prepare(database)
        warm = _typed(temporal_join(query, database, tau, prepared=artifact,
                                    algorithm="timefirst"))
        view = _typed(sweep_columns(query, artifact.columns_for(query, tau), tau))
        if query in ORDER_STABLE:
            assert warm == view
        else:
            assert sorted(warm) == sorted(view)
