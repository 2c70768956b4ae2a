"""One differential matrix: every execution route returns ``naive``'s rows.

The paper defines the τ-durable temporal join by its result set (§2),
not by an algorithm. So each way this library evaluates a query is one
row of :data:`ROUTES`, a callable ``(query, database, tau) ->
JoinResultSet`` checked with :meth:`JoinResultSet.same_results` against
:func:`naive_join` on every instance :func:`instances` draws. Binary
queries also run every Allen predicate through :data:`ALLEN_ROUTES`
against a brute-force pair oracle. A route may refuse an instance only
with the typed error :data:`REFUSALS` documents for that query class.

Adding a route is one line in a table. A failure names the route and
τ; the falsifying instance is printed by Hypothesis (stored attribute
order included), so a CI log is enough to reproduce it.
"""

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, note, settings, strategies as st

from repro import (
    ExecutionStats,
    Interval,
    JoinQuery,
    TemporalRelation,
    explain_analyze,
    prepare,
    run_batch,
    temporal_join,
)
from repro.algorithms.allen import ATOMS, pair_interval, parse_predicate
from repro.algorithms.interval_join import JOIN_STRATEGIES
from repro.algorithms.naive import naive_join
from repro.algorithms.registry import available_algorithms
from repro.core.classification import QueryClass, classify
from repro.core.errors import PlanError, QueryError
from repro.core.result import JoinResultSet
from repro.nontemporal.ghd import find_guarded_partition
from repro.nontemporal.search import clear_search_memo
from repro.serve import Backpressure, TemporalJoinService
from repro.workloads.synthetic import SyntheticConfig, generate

INF = float("inf")

# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------
QUERIES = {
    "line2": JoinQuery.line(2),
    "line3": JoinQuery.line(3),
    "star3": JoinQuery.star(3),
    "hier": JoinQuery.hier(),
    "triangle": JoinQuery.triangle(),
    "cycle4": JoinQuery.cycle(4),
    # Merely r-hierarchical: the footnote-2 instance reduction runs.
    "r-hier": JoinQuery({"R1": ("a", "b"), "R2": ("a", "b", "c")}),
}
#: τ = 0 skips the τ/2 shrink and τ > 0 runs it, with int, float and
#: Fraction images of the endpoints (τ/2 = 0.5 lands between integers).
TAUS = (0, 1, 2.5, 3, Fraction(5, 2))

#: Value-equal literals of three types, so representatives matter.
_value = st.sampled_from([0, 1, 1.0, True, 2])
#: A dozen starts and short lengths: duplicate, touching and
#: zero-length intervals are the common case; ±inf ends occur too.
_start = st.sampled_from([-3, -2, -1, 0, 1, 2, 3, 4, 5, 6, -INF])
_length = st.sampled_from([0, 0, 1, 2, 3, 4, INF])


@st.composite
def _random_query(draw, edges):
    """A random hypergraph over six attributes with ``edges`` (a
    ``(min, max)`` count): cyclic, disconnected, repeated and unary
    edges all occur."""
    drawn = draw(st.lists(
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=3, unique=True),
        min_size=edges[0], max_size=edges[1],
    ))
    return JoinQuery({f"R{i}": tuple(edge) for i, edge in enumerate(drawn)})


@st.composite
def instances(draw, shapes=tuple(QUERIES) + ("random",), edges=(1, 5)):
    """``(query, database)``; each relation is stored in edge order or
    reversed, and routes must read it by attribute name either way."""
    shape = draw(st.sampled_from(shapes))
    query = draw(_random_query(edges)) if shape == "random" else QUERIES[shape]
    database = {}
    for name in query.edge_names:
        attrs = query.edge(name)
        rows = {}
        for values, lo, length in draw(st.lists(
            st.tuples(st.tuples(*[_value] * len(attrs)), _start, _length),
            max_size=5,
        )):
            rows.setdefault(values, Interval(lo, length if lo == -INF else lo + length))
        stored = TemporalRelation(name, attrs, list(rows.items()))
        database[name] = stored.reordered(attrs[::-1]) if draw(st.booleans()) else stored
    return query, database


def _star2(r1, r2):
    """A star-2 instance for the shard-boundary examples."""
    return JoinQuery.star(2), {
        "R1": TemporalRelation("R1", ("x1", "y"), r1),
        "R2": TemporalRelation("R2", ("x2", "y"), r2),
    }


#: Results whose intervals start, end or sit exactly on a time cut.
STRADDLING = _star2(
    [(("a", "h"), (0, 100)), (("b", "h"), (0, 49)), (("c", "h"), (50, 60)),
     (("d", "h"), (49, 50))],
    [(("u", "h"), (10, 90)), (("v", "h"), (50, 50)), (("w", "h"), (0, 100))],
)
ENDS_ON_CUT = _star2([(("a", "h"), (10, 50))], [(("u", "h"), (0, 100))])
UNBOUNDED = _star2(
    [(("a", "h"), Interval.always())],
    [(("u", "h"), Interval.always()), (("v", "h"), (0, 10))],
)
#: Intersection [20, 40]: durability 20, so τ = 20 keeps it exactly.
SHRUNK = _star2([(("a", "h"), (0, 40))], [(("u", "h"), (20, 80))])
#: The paper's synthetic workload: huge intermediates, tiny results.
SYNTHETIC = {
    family: (QUERIES[family], generate(QUERIES[family], SyntheticConfig(n_dangling=25, n_results=8)))
    for family in ("line3", "star3", "triangle")
}


def _with_danglers(query, database):
    """``database`` plus two rows per relation that the semijoin pass
    drops: one whose values no other relation holds, and one far off in
    time that shares its first value with the relation's first row."""
    out = {}
    for name, relation in database.items():
        first_values, first = relation.rows[0]
        out[name] = TemporalRelation(name, relation.attrs, [
            *relation.rows,
            (tuple(f"dangling-{name}-{a}" for a in relation.attrs), first),
            (tuple(f"{v}-late" if i else v for i, v in enumerate(first_values)),
             Interval(10_000, 10_005)),
        ])
    return query, out


#: A small Figure-8 line(4): the core join's residual hulls kill most
#: core tuples, so every route is checked where HYBRID-INTERVAL's and
#: HYBRID's hull prune fires.
FIG8_LINE4 = (
    JoinQuery.line(4), generate(JoinQuery.line(4), SyntheticConfig(n_dangling=60, n_results=8))
)


#: Shapes the auto route sends to HYBRID (triangle, cycle4) and to
#: HYBRID-INTERVAL (line3), with rows the semijoin pass drops at every τ
#: used below.
DANGLING = {
    "line3": _with_danglers(*SYNTHETIC["line3"]),
    "triangle": _with_danglers(*SYNTHETIC["triangle"]),
    "cycle4": _with_danglers(
        QUERIES["cycle4"],
        generate(QUERIES["cycle4"], SyntheticConfig(n_dangling=25, n_results=8)),
    ),
}
#: The shapes whose auto route runs the pass: the planner picks HYBRID.
HYBRID_SHAPES = ("triangle", "cycle4")
#: R1 stored as (x2, x1): the serve route once read it in edge order.
REVERSED_LINE2 = (JoinQuery.line(2), {
    "R1": TemporalRelation("R1", ("x2", "x1"), [((7, 1), (0, 5))]),
    "R2": TemporalRelation("R2", ("x2", "x3"), [((7, 9), (2, 8))]),
})
#: Every endpoint-fixing atom fires: each R1 row has one equal partner
#: (±inf and zero-length ones included) and each other atom holds on
#: some pair, some pairs under two atoms (a-s: meets and finished-by).
#: R1 is stored as (x2, x1) and the key x2 is 1, 1.0 or True, so every
#: row shares one key written three ways.
EVERY_ENDPOINT_ATOM = (JoinQuery.line(2), {
    "R1": TemporalRelation("R1", ("x2", "x1"), [
        ((1, "a"), (0, 5)), ((1.0, "b"), (0, 3)), ((True, "c"), (3, 5)),
        ((1, "d"), (-INF, 3)), ((1.0, "e"), (3, INF)), ((True, "f"), (5, 5)),
    ]),
    "R2": TemporalRelation("R2", ("x2", "x3"), [
        ((1.0, "p"), (0, 5)), ((True, "q"), (0, 3)), ((1, "r"), (3, 5)),
        ((1, "s"), (5, 5)), ((True, "t"), (3, INF)), ((1.0, "u"), (-INF, 3)),
    ]),
})


# ----------------------------------------------------------------------
# Routes
# ----------------------------------------------------------------------
def _variant(query):
    """The same hypergraph with its output attributes reversed."""
    return JoinQuery(
        {name: query.edge(name) for name in query.edge_names},
        attr_order=tuple(reversed(query.attrs)),
    )


def _in_order(result, attrs):
    """``result``'s rows with their columns laid out in ``attrs``."""
    pos = [result.attrs.index(a) for a in attrs]
    return JoinResultSet(attrs, ((tuple(v[p] for p in pos), iv) for v, iv in result))


def _join(query, database, tau, **kwargs):
    return temporal_join(query, database, tau, parallel_mode="inline", **kwargs)


def _prepared(query, database, tau, **kwargs):
    return _join(query, database, tau, prepared=prepare(database), **kwargs)


def _result_cuts(query, database, tau):
    """Interior cuts through naive's result endpoints and midpoints (the
    input's endpoints when there is no result), at most six."""
    spans = [iv for _, iv in naive_join(query, database, tau)] or [
        iv for relation in database.values() for _, iv in relation
    ]
    points = {0}
    for iv in spans:
        points.update(p for p in (iv.lo, iv.hi) if abs(p) != INF)
        if abs(iv.lo) != INF and abs(iv.hi) != INF:
            points.add((iv.lo + iv.hi) / 2)
    cuts = sorted(points)
    return tuple(cuts[:: -(-len(cuts) // 6)])


def _cuts(query, database, tau, **kwargs):
    cuts = _result_cuts(query, database, tau)
    return _join(query, database, tau, workers=len(cuts) + 1, cuts=cuts, **kwargs)


def _batch(query, database, tau, workers, pick):
    """``run_batch`` over the query and an attribute-permuted copy."""
    fleet = [query, _variant(query)]
    results = run_batch(
        fleet, prepare(database), tau=tau, workers=workers, parallel_mode="inline"
    )
    return _in_order(results[pick], query.attrs)


def _serve(query, database, tau, pick):
    """One ingest pass feeding the query and an attribute-order variant
    (deduplicated onto one operator; it drops all but one buffered
    emission, which its snapshot must not see)."""
    service = TemporalJoinService()
    handles = [
        service.register(query, tau=tau, buffer_size=1_000_000),
        service.register(_variant(query), tau=tau,
                         policy=Backpressure.DROP_OLDEST, buffer_size=1),
    ]
    service.ingest_database(database)
    return _in_order(handles[pick].snapshot().results, query.attrs)


def _budget_exhausted(query, database, tau):
    """``auto`` with a one-node planner budget: a best-found plan, noted."""
    stats = ExecutionStats()
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_PLANNER_BUDGET", "1")
        clear_search_memo()
        result = temporal_join(query, database, tau, stats=stats)
    assert "planner.budget_exhausted" in stats.notes, "budget cut-off not noted"
    return result


ENGINES = ("kernel", "object")

ROUTES = {
    **{
        f"{algorithm}/{engine}/w{workers}": partial(
            _join, algorithm=algorithm, engine=engine, workers=workers
        )
        for algorithm in available_algorithms()
        for engine in ENGINES
        for workers in (1, 3)
    },
    "auto": _join,
    "auto/w3": partial(_join, workers=3),
    "auto/budget-exhausted": _budget_exhausted,
    **{f"timefirst/{e}/cuts": partial(_cuts, algorithm="timefirst", engine=e) for e in ENGINES},
    **{f"{a}/prepared/w1": partial(_prepared, algorithm=a) for a in available_algorithms()},
    **{f"{a}/prepared/w3": partial(_prepared, algorithm=a, workers=3) for a in ("auto", "timefirst")},
    **{f"run_batch/w{w}": partial(_batch, workers=w, pick=0) for w in (1, 3)},
    **{f"run_batch/variant/w{w}": partial(_batch, workers=w, pick=1) for w in (1, 3)},
    "explain_analyze": lambda q, db, tau: explain_analyze(q, db, tau).result,
    "serve": partial(_serve, pick=0),
    "serve/variant": partial(_serve, pick=1),
    **{f"baseline/{s}": partial(_join, algorithm="baseline", binary_strategy=s) for s in JOIN_STRATEGIES},
}


def _is_r_hierarchical(query):
    return classify(query.hypergraph) in (QueryClass.HIERARCHICAL, QueryClass.R_HIERARCHICAL)


#: Route-name prefix -> (the typed error it documents, the queries it
#: refuses). Every other route must answer every instance.
REFUSALS = {
    "timefirst-cm": (QueryError, lambda q: not _is_r_hierarchical(q)),
    "hybrid-interval": (PlanError, lambda q: find_guarded_partition(q.hypergraph) is None),
}


def _answer(name, route, query, database, tau):
    """The route's rows, or None when it refuses ``query`` as documented;
    any other exception is re-raised naming the route and τ."""
    error, refuses = REFUSALS.get(name.split("/")[0], (None, None))
    refused = error is not None and refuses(query)
    try:
        got = route(query, database, tau)
    except Exception as exc:
        if refused and isinstance(exc, error):
            return None
        raise AssertionError(f"route {name} raised at tau={tau!r}: {exc!r}") from exc
    assert not refused, f"route {name} answered a query it refuses with {error.__name__}"
    return got


def _note(query, database, tau):
    note(f"query {query!r}, tau={tau!r}")
    for name, relation in database.items():
        note(f"  {name}{relation.attrs}: {relation.rows}")


@settings(max_examples=85, deadline=None)
@given(instance=instances(), tau=st.sampled_from(TAUS))
@example(instance=REVERSED_LINE2, tau=0)
@example(instance=STRADDLING, tau=0)
@example(instance=ENDS_ON_CUT, tau=0)
@example(instance=UNBOUNDED, tau=0)
@example(instance=SHRUNK, tau=10)
@example(instance=SHRUNK, tau=20)
@example(instance=SYNTHETIC["line3"], tau=300)
@example(instance=SYNTHETIC["star3"], tau=0)
@example(instance=SYNTHETIC["triangle"], tau=0)
@example(instance=DANGLING["line3"], tau=0)
@example(instance=DANGLING["line3"], tau=3)
@example(instance=DANGLING["cycle4"], tau=0)
@example(instance=DANGLING["cycle4"], tau=2.5)
@example(instance=DANGLING["triangle"], tau=2.5)
@example(instance=FIG8_LINE4, tau=0)
@example(instance=FIG8_LINE4, tau=3)
def test_every_route_returns_naive_rows(instance, tau):
    query, database = instance
    _note(query, database, tau)
    want = naive_join(query, database, tau)
    for name, route in ROUTES.items():
        got = _answer(name, route, query, database, tau)
        assert got is None or got.same_results(want), (
            f"route {name} disagrees with naive at tau={tau!r}: "
            f"{got.normalized()} != {want.normalized()}"
        )


# ----------------------------------------------------------------------
# Allen predicates on binary queries
# ----------------------------------------------------------------------
PREDICATES = sorted(ATOMS) + [
    "overlaps-or-meets", "before-or-meets", "overlaps-or-before",
    # Unions of endpoint-fixing atoms (the hash join) and one that mixes
    # in a sweep atom.
    "starts-or-started-by-or-equals", "meets-or-finishes", "during-or-equals",
]

ALLEN_ROUTES = {
    **{e: partial(_join, engine=e) for e in ENGINES},
    "prepared": _prepared,
    "baseline": partial(_join, algorithm="baseline"),
}


def pair_oracle(query, database, predicate, tau):
    """Brute-force binary predicate join, read by attribute name."""
    holds = [ATOMS[a].holds for a in parse_predicate(predicate)]
    left, right = (database[name] for name in query.edge_names)
    out = JoinResultSet(query.attrs)
    for values1, iv1 in left:
        row1 = dict(zip(left.attrs, values1))
        for values2, iv2 in right:
            row2 = dict(zip(right.attrs, values2))
            if any(row1[a] != row2[a] for a in row1.keys() & row2.keys()):
                continue
            if not any(h(iv1.lo, iv1.hi, iv2.lo, iv2.hi) for h in holds):
                continue
            interval = Interval(*pair_interval(iv1.lo, iv1.hi, iv2.lo, iv2.hi))
            if interval.duration >= tau:
                row = {**row2, **row1}
                out.append(tuple(row[a] for a in query.attrs), interval)
    return out


@settings(max_examples=40, deadline=None)
@given(instance=instances(("line2", "r-hier", "random"), edges=(2, 2)),
       tau=st.sampled_from(TAUS))
@example(instance=REVERSED_LINE2, tau=0)
@example(instance=EVERY_ENDPOINT_ATOM, tau=0)
def test_every_allen_route_returns_the_pair_oracle(instance, tau):
    query, database = instance
    _note(query, database, tau)
    for predicate in PREDICATES:
        want = pair_oracle(query, database, predicate, tau)
        for name, route in ALLEN_ROUTES.items():
            name = f"{name}/{predicate}"
            got = _answer(name, partial(route, predicate=predicate), query, database, tau)
            assert got.same_results(want), (
                f"route {name} disagrees with the pair oracle at tau={tau!r}: "
                f"{got.normalized()} != {want.normalized()}"
            )


def test_endpoint_equality_predicates_take_the_hash_path(monkeypatch):
    from repro.algorithms import allen

    calls = []
    for fn in ("endpoint_hash_join", "_event_sweep"):
        monkeypatch.setattr(allen, fn, lambda *args, _fn=fn, _real=getattr(allen, fn): (
            calls.append(_fn) or _real(*args)
        ))
    query, database = EVERY_ENDPOINT_ATOM
    routes = {
        "auto": _join,
        "kernel": partial(_join, engine="kernel"),
        "prepared": _prepared,
        # perfbench's reference for the hash route: it must not run it.
        "object": partial(_join, engine="object"),
    }
    # a-s is finished-by and meets: the union emits it once.
    for predicate in ("equals", "finished-by-or-meets", "during-or-equals"):
        want = pair_oracle(query, database, predicate, 0)
        for name, route in routes.items():
            label = f"{name}/{predicate}"
            hashed = name != "object" and predicate != "during-or-equals"
            calls.clear()
            stats = ExecutionStats()
            got = route(query, database, 0, predicate=predicate, stats=stats)
            assert got.same_results(want), label
            if hashed or name == "object":
                # Both bind the left row's literals (1, 1.0 or True), as
                # the oracle does.
                assert sorted(map(repr, got)) == sorted(map(repr, want)), label
            assert stats.notes["allen.strategy"] == ("hash" if hashed else "sweep"), label
            assert set(calls) == {"endpoint_hash_join" if hashed else "_event_sweep"}, (
                f"{label} ran {calls}"
            )
            if hashed:
                # The artifact is not read: the hash join reads the relations.
                assert set(stats.counters) == {"allen.atoms", "allen.pairs", "results"} | (
                    {"prepared.fallback_queries"} if name == "prepared" else set()
                ), label


# ----------------------------------------------------------------------
# Process mode: fixed instances through the resident spawn pool
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family, algorithm", [
    ("line3", "timefirst"), ("line3", "hybrid"), ("star3", "timefirst"),
])
def test_process_mode_route(family, algorithm):
    query = QUERIES[family]
    database = generate(query, SyntheticConfig(n_dangling=30, n_results=8))
    stats = ExecutionStats()
    got = temporal_join(query, database, algorithm=algorithm, workers=2, stats=stats)
    assert got.same_results(naive_join(query, database)), f"route {algorithm}/process/w2"
    assert stats.get("parallel.shards") == 2
    assert stats.get("parallel.workers") == 2


# ----------------------------------------------------------------------
# The semijoin pass before the HYBRID runs the auto route picks
# ----------------------------------------------------------------------
#: The auto routes that run the pass before HYBRID, each
#: ``(query, database, tau, stats) -> result``.
REDUCED_ROUTES = {
    "auto": lambda q, db, tau, stats: _join(q, db, tau, stats=stats),
    "auto/w3": lambda q, db, tau, stats: _join(q, db, tau, workers=3, stats=stats),
    "auto/prepared": lambda q, db, tau, stats: _prepared(q, db, tau, stats=stats),
    "auto/prepared/w3": lambda q, db, tau, stats: _prepared(
        q, db, tau, workers=3, stats=stats
    ),
    "run_batch": lambda q, db, tau, stats: run_batch(
        [q], prepare(db), tau=tau, stats=stats
    )[0],
    "explain_analyze": lambda q, db, tau, stats: explain_analyze(
        q, db, tau, stats=stats
    ).result,
}


@pytest.mark.parametrize("route", sorted(REDUCED_ROUTES))
@pytest.mark.parametrize("shape", HYBRID_SHAPES)
@pytest.mark.parametrize("tau", [0, 3])
def test_auto_hybrid_routes_drop_dangling_rows(shape, tau, route):
    query, database = DANGLING[shape]
    stats = ExecutionStats()
    got = REDUCED_ROUTES[route](query, database, tau, stats)
    assert got.same_results(naive_join(query, database, tau))
    assert stats["kernel.semijoin_dropped"] > 0
    assert "phase.kernel.semijoin" in stats.timers


def test_the_pass_runs_only_on_auto_hybrid_routes(monkeypatch):
    from repro.kernels import columns

    calls = []
    real = columns.semijoin_database
    monkeypatch.setattr(
        columns, "semijoin_database",
        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs),
    )
    query, database = DANGLING["cycle4"]
    want = naive_join(query, database)
    line3, chain = DANGLING["line3"]
    routes = {
        "hybrid": (query, database, partial(_join, algorithm="hybrid")),
        "hybrid/w3": (query, database, partial(_join, algorithm="hybrid", workers=3)),
        "hybrid/prepared": (query, database, partial(_prepared, algorithm="hybrid")),
        "timefirst/object": (
            query, database, partial(_join, algorithm="timefirst", engine="object")
        ),
        "naive": (query, database, partial(_join, algorithm="naive")),
        # The planner sends line3 to HYBRID-INTERVAL, which reads every row.
        "auto/line3": (line3, chain, _join),
    }
    for name, (q, db, route) in routes.items():
        stats = ExecutionStats()
        assert route(q, db, 0, stats=stats).same_results(naive_join(q, db)), name
        assert "kernel.semijoin_dropped" not in stats.counters, name
    line2, pair = REVERSED_LINE2
    stats = ExecutionStats()
    _join(line2, pair, 0, predicate="before", stats=stats)
    assert "kernel.semijoin_dropped" not in stats.counters
    assert _serve(query, database, 0, pick=0).same_results(want)
    assert calls == []
    _join(query, database, 0)
    assert len(calls) == 1


def test_nothing_dropped_hands_over_the_same_database(monkeypatch):
    from repro.algorithms import registry

    seen = []
    real = registry.get_algorithm("hybrid")
    monkeypatch.setitem(
        registry._REGISTRY, "hybrid",
        lambda query, database, **kwargs: seen.append(database) or real(
            query, database, **kwargs
        ),
    )
    # A Figure-8 cycle without dangling rows: every row is in a result.
    query = QUERIES["cycle4"]
    database = generate(query, SyntheticConfig(n_dangling=0, n_results=8))
    stats = ExecutionStats()
    temporal_join(query, database, stats=stats)
    assert stats["kernel.semijoin_dropped"] == 0
    assert seen[-1] is database
    # Rows drop: the algorithm reads the kept rows of the original relations.
    query, database = DANGLING["cycle4"]
    temporal_join(query, database)
    reduced = seen[-1]
    for name, relation in database.items():
        kept = set(reduced[name].rows)
        assert len(kept) < len(relation)
        assert reduced[name].rows == [row for row in relation.rows if row in kept]
