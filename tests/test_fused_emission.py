"""Kernel REPORT emits final rows: decoded and widened inside the sweep.

On hierarchical queries every kernel route (cold, prepared, batch and
both worker shard paths) sweeps through ``sweep_columns``, whose REPORT
programs decode interned values and widen by τ/2 as they emit. That
must be row for row — values, order and endpoint types — the interned
pair ``make_state`` + ``kernel_sweep`` followed by ``deintern_expand``,
which the GHD state still runs. Instances mix ``1``/``1.0``/``True``
values and endpoints, ±inf, zero-length and touching intervals, and
empty relations.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.kernels
import repro.kernels.columns
import repro.kernels.engine
from repro import prepare, run_batch, temporal_join
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.kernels import deintern_expand, kernel_sweep, make_state, sweep_columns
from repro.kernels.engine import kernel_columns
from repro.obs import ExecutionStats

INF = float("inf")
TAUS = (0, 0.3, 3)
ENDPOINTS = (-INF, 0, True, 1, 1.0, 2, 2.0, 3, 4.5, INF)
VALUES = (0, 1, 1.0, True, 2, 2.0)

STAR3 = JoinQuery.star(3)
#: A relation leaf below its deepest attribute (R0) next to attribute
#: leaves.
STAR_WITH_CORE = JoinQuery(
    {"R0": ("y",), "R1": ("x1", "y"), "R2": ("x2", "y"), "R3": ("x3", "y")}
)
#: Case 3 of Lemma 4: an expiring R3 tuple extends its result by the
#: members of ``b`` below ``a``, whose subtree holds R1's attribute leaf
#: and R2's relation leaf.
NESTED = JoinQuery({"R1": ("a", "b", "c"), "R2": ("a", "b"), "R3": ("a", "d")})
LINE3 = JoinQuery.line(3)
HIERARCHICAL = [STAR3, STAR_WITH_CORE, NESTED]

HYPOTHESIS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def exact(rows):
    """Rows as ``repr`` strings, in order: values, endpoints, their types."""
    return [(tuple(map(repr, values)), repr(iv.lo), repr(iv.hi)) for values, iv in rows]


@st.composite
def instances(draw, queries):
    query = draw(st.sampled_from(queries))
    value = st.sampled_from(VALUES)
    endpoint = st.sampled_from(ENDPOINTS)
    database = {}
    for name in query.edge_names:
        attrs = query.edge(name)
        rows = {}
        for _ in range(draw(st.integers(min_value=0, max_value=7))):
            values = tuple(draw(value) for _ in attrs)
            rows.setdefault(values, tuple(sorted((draw(endpoint), draw(endpoint)))))
        database[name] = TemporalRelation(name, attrs, list(rows.items()))
    return query, database


def two_pass(run_query, columns, tau=0, stats=None):
    """The interned sweep, then one ``deintern_expand`` pass."""
    state = make_state(run_query, columns, stats=stats)
    result = kernel_sweep(run_query, columns, state, stats=stats)
    return deintern_expand(columns.domains, result, tau / 2 if tau else 0)


def _swapped(query):
    return JoinQuery(
        {name: query.edge(name) for name in query.edge_names},
        attr_order=tuple(reversed(query.attrs)),
    )


def _batch(query, database, tau, **kwargs):
    """A batch with a shared result and an attribute-order variant."""
    results = run_batch([query, _swapped(query), query], prepare(database), tau=tau, **kwargs)
    return [row for result in results for row in result]


def _inline(query, database, tau, **kwargs):
    return temporal_join(
        query, database, tau, algorithm="timefirst", engine="kernel",
        workers=3, parallel_mode="inline", **kwargs,
    )


def _time_cuts(database):
    """Interior cuts at finite endpoints, so time shards get rows."""
    times = sorted(
        {t for rel in database.values() for _, iv in rel for t in (iv.lo, iv.hi)}
        - {INF, -INF}
    )
    return times[1:-1:2] or [0]


#: Routes that run ``sweep_columns`` on a kernel path.
ROUTES = {
    "cold": lambda q, db, tau: temporal_join(
        q, db, tau, algorithm="timefirst", engine="kernel"
    ),
    "prepared": lambda q, db, tau: temporal_join(
        q, db, tau, algorithm="timefirst", engine="kernel", prepared=prepare(db)
    ),
    "batch": lambda q, db, tau: _batch(q, db, tau),
    "batch-workers3": lambda q, db, tau: _batch(
        q, db, tau, workers=3, parallel_mode="inline"
    ),
    "key-shards": lambda q, db, tau: _inline(q, db, tau),
    "time-shards": lambda q, db, tau: _inline(q, db, tau, cuts=_time_cuts(db)),
}


def _patch_sweep(patch, replacement):
    for module in (repro.kernels, repro.kernels.engine):
        patch.setattr(module, "sweep_columns", replacement)


# ----------------------------------------------------------------------
# The engine function against the interned pair
# ----------------------------------------------------------------------
@HYPOTHESIS
@given(case=instances(HIERARCHICAL + [LINE3]), tau=st.sampled_from(TAUS))
def test_sweep_columns_equals_interned_pair(case, tau):
    query, database = case
    run_query, columns = kernel_columns(query, database, tau)
    got = sweep_columns(run_query, columns, tau)
    want = two_pass(run_query, columns, tau)
    assert got.attrs == want.attrs == query.attrs
    assert exact(got) == exact(want)


@HYPOTHESIS
@given(case=instances(HIERARCHICAL), tau=st.sampled_from(TAUS))
def test_cold_and_prepared_routes_equal_interned_pair(case, tau):
    query, database = case
    _, columns = kernel_columns(query, database, tau)
    assert exact(ROUTES["cold"](query, database, tau)) == exact(
        two_pass(query, columns, tau)
    )
    view = prepare(database).columns_for(query, tau)
    assert exact(ROUTES["prepared"](query, database, tau)) == exact(
        two_pass(query, view, tau)
    )


def _check_route(monkeypatch, route, query, database, tau):
    """The route, and the same route with the two-pass sweep swapped in."""
    fused = exact(ROUTES[route](query, database, tau))
    calls = []

    def reference(run_query, columns, tau=0, stats=None):
        calls.append(run_query)
        return two_pass(run_query, columns, tau, stats=stats)

    with monkeypatch.context() as patch:
        _patch_sweep(patch, reference)
        assert exact(ROUTES[route](query, database, tau)) == fused
    assert calls, f"{route} did not sweep through sweep_columns"
    return fused


@HYPOTHESIS
@given(
    case=instances(HIERARCHICAL),
    tau=st.sampled_from(TAUS),
    route=st.sampled_from(sorted(ROUTES)),
)
def test_routes_equal_routes_over_interned_pair(monkeypatch, case, tau, route):
    query, database = case
    _check_route(monkeypatch, route, query, database, tau)


def test_counters_equal_interned_pair():
    """``hier.*``, ``sweep.*`` and ``results`` are the interned pair's."""
    from repro.workloads.synthetic import SyntheticConfig, generate

    database = generate(STAR3, SyntheticConfig(n_dangling=40, n_results=30, seed=5))
    for tau in TAUS:
        run_query, columns = kernel_columns(STAR3, database, tau)
        fused, interned = ExecutionStats(), ExecutionStats()
        got = sweep_columns(run_query, columns, tau, stats=fused)
        want = two_pass(run_query, columns, tau, stats=interned)
        assert exact(got) == exact(want)
        assert len(got) > 0
        assert fused.counters == interned.counters


# ----------------------------------------------------------------------
# No hierarchical kernel route de-interns in a second pass
# ----------------------------------------------------------------------
def _instance():
    """A star with six keys of ``y``, none heavy enough to force time cuts."""
    query = STAR3
    lows = (0, 1.0, True, -INF, 2, 0)
    highs = (9, INF, 5, 7, 2, 4.5)
    database = {}
    for i, name in enumerate(query.edge_names):
        rows = [
            ((10 * i + k, k % 6), (lows[(k + i) % 6], highs[(k + 2 * i) % 6]))
            for k in range(12)
        ]
        database[name] = TemporalRelation(name, query.edge(name), rows)
    return query, database


def test_instance_takes_key_and_time_shards():
    query, database = _instance()
    for kwargs, note in (({}, "key:y"), ({"cuts": _time_cuts(database)}, "time:")):
        stats = ExecutionStats()
        _inline(query, database, 0, stats=stats, **kwargs)
        assert stats.notes["parallel.partition"].startswith(note)
        assert stats.counters["parallel.shards"] >= 2


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_fixed_instance_routes_equal_interned_pair(monkeypatch, route, tau):
    query, database = _instance()
    assert _check_route(monkeypatch, route, query, database, tau)


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_hierarchical_routes_never_call_deintern_expand(monkeypatch, route, tau):
    query, database = _instance()
    want = exact(ROUTES[route](query, database, tau))
    assert want

    def forbidden(*args, **kwargs):
        raise AssertionError("deintern_expand called on a hierarchical kernel route")

    with monkeypatch.context() as patch:
        for module in (repro.kernels, repro.kernels.columns, repro.kernels.engine):
            patch.setattr(module, "deintern_expand", forbidden)
        assert exact(ROUTES[route](query, database, tau)) == want
