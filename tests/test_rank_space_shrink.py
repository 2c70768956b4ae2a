"""The τ/2 shrink in rank space: field-exact against the object shrink.

The cold kernel route (``build_shrunk_columns``) and the prepared
τ-views (``shrink_columns``) shrink once per distinct endpoint instead of
once per object row. Both must produce the columns the object
composition ``build_columns(shrink_database(db, τ))`` produces — codes,
ranks, ``rank_times`` values *and types*, row order, domains and
emission intervals — on instances with ``1``/``1.0``/``True`` values and
endpoints, ±inf, duplicate, touching and zero-length intervals, ints
above 2**53 under a float τ, empty relations, and instances where the
shrink drops every row. Emission intervals are built once per distinct
``(lo_rank, hi_rank)`` pair, also after a pickle round trip.
"""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import explain_analyze, temporal_join
from repro.core.durability import shrink_database
from repro.core.errors import QueryError
from repro.core.interval import Interval
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.kernels import build_columns, shrink_columns
from repro.kernels.columns import build_shrunk_columns
from repro.obs import ExecutionStats
from repro.parallel import parallel_temporal_join
from repro.workloads.synthetic import SyntheticConfig, generate

INF = float("inf")
BIG = 2**53
#: Equal times of different types, ±inf, ints beyond float precision.
ENDPOINTS = (-INF, 0, True, 1, 1.0, 2, 2.0, 3, 4.5, BIG, BIG + 1, BIG + 2,
             float(BIG), 2**60, INF)
VALUES = (0, 1, 1.0, True, 2, 2.0)
TAUS = (1, 3, 0.3, 2.5, 1e-9, 8, 2**54, True)

STAR3 = JoinQuery.star(3)
LINE3 = JoinQuery.line(3)
HYPOTHESIS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def exact(rows):
    """Result rows as ``repr`` strings: values, endpoints and their types."""
    return [(tuple(map(repr, values)), repr(iv.lo), repr(iv.hi)) for values, iv in rows]


def typed(items):
    return [(type(x).__name__, repr(x)) for x in items]


def typed_intervals(intervals):
    return [(typed([iv.lo]), typed([iv.hi])) for iv in intervals]


_ATTRS = {name: STAR3.edge(name) for name in STAR3.edge_names}
_ATTRS.update({f"L{name}": LINE3.edge(name) for name in LINE3.edge_names})


def deinterned(columns):
    """Each row's values, de-interned through its relation's attributes."""
    return [
        tuple(columns.domains[a][code] for a, code in zip(_ATTRS[name], values))
        for name, values in zip(columns.row_relation, columns.row_values)
    ]


def assert_same_rank_space(got, want):
    """Every field but the interned codes and domains."""
    assert got.relations == want.relations
    assert got.row_relation == want.row_relation
    assert list(got.row_lo) == list(want.row_lo)
    assert list(got.row_hi) == list(want.row_hi)
    assert typed(got.rank_times) == typed(want.rank_times)
    assert got.event_codes == want.event_codes
    assert got.n_rows == want.n_rows
    assert typed_intervals(got.intervals()) == typed_intervals(want.intervals())


def assert_same_columns(got, want):
    assert_same_rank_space(got, want)
    assert got.row_values == want.row_values
    assert {a: typed(d) for a, d in got.domains.items()} == {
        a: typed(d) for a, d in want.domains.items()
    }


@st.composite
def databases(draw):
    """Star3 and line3 relations (line3 renamed ``L*``) in one database."""
    database = {}
    for name, attrs in _ATTRS.items():
        rows = {}
        for _ in range(draw(st.integers(min_value=0, max_value=8))):
            values = tuple(draw(st.sampled_from(VALUES)) for _ in attrs)
            lo, hi = sorted(
                (draw(st.sampled_from(ENDPOINTS)), draw(st.sampled_from(ENDPOINTS)))
            )
            rows.setdefault(values, (lo, hi))
        database[name] = TemporalRelation(name, attrs, list(rows.items()))
    return database


@HYPOTHESIS
@given(database=databases(), tau=st.sampled_from(TAUS))
def test_cold_columns_equal_object_shrink_then_build(database, tau):
    want = build_columns(shrink_database(database, tau))
    assert_same_columns(build_shrunk_columns(database, tau), want)


@HYPOTHESIS
@given(database=databases(), tau=st.sampled_from(TAUS))
def test_tau_view_equals_object_shrink_then_build(database, tau):
    # A τ-view keeps its base columns' codes and domains; the values
    # they de-intern to are the shrunk database's, row for row.
    want = build_columns(shrink_database(database, tau))
    got = shrink_columns(build_columns(database), tau)
    assert_same_rank_space(got, want)
    assert deinterned(got) == deinterned(want)


def _db(rows_by_relation):
    return {
        name: TemporalRelation(name, _ATTRS[name], rows_by_relation.get(name, []))
        for name in _ATTRS
    }


def test_dropped_row_never_picks_a_representative():
    # R1's first row vanishes at τ=4; its 2.0 must not become the
    # representative of the value the surviving row spells 2.
    database = _db({
        "R1": [((2.0, 0), (0, 1)), ((2, 1), (0, 10))],
        "R2": [((True, 1), (0, 10))],
    })
    got = build_shrunk_columns(database, 4)
    assert_same_columns(got, build_columns(shrink_database(database, 4)))
    assert typed(got.domains["x1"]) == [("int", "2")]


def test_every_row_dropped_and_empty_relations():
    database = _db({"R1": [((1, 0), (0, 1))], "LR2": [((0, 0), (5, 5))]})
    stats = ExecutionStats()
    got = build_shrunk_columns(database, 3, stats=stats)
    assert_same_columns(got, build_columns(shrink_database(database, 3)))
    assert got.n_rows == 0 and got.event_codes == [] and got.intervals() == []
    assert set(got.domains) == {a for attrs in _ATTRS.values() for a in attrs}
    assert stats["kernel.shrink_dropped"] == 2
    assert stats["kernel.sort_calls"] == 1
    view = shrink_columns(build_columns(database), 3)
    assert view.n_rows == 0 and view.rank_times == []


def test_ints_beyond_float_precision_collapse_like_the_object_path():
    # 2**53 and 2**53 + 1 shrink to one float under a float τ.
    database = _db({"R1": [((0, 0), (BIG, BIG + 9)), ((1, 0), (BIG + 1, BIG + 8))]})
    got = build_shrunk_columns(database, 0.5)
    assert_same_columns(got, build_columns(shrink_database(database, 0.5)))
    assert list(got.row_lo) == [0, 0]


@pytest.mark.parametrize("tau", [Fraction(1, 2), Fraction(3)])
def test_non_float_half_takes_the_object_shrink(tau):
    # 1 + Fraction(1, 4) and 1.0 + Fraction(1, 4) differ in type, so
    # per-endpoint images would lose a type; each row gets its own.
    database = _db({
        "R1": [((0, 0), (1.0, 9)), ((1, 0), (1, 9))],
        "R2": [((0, 0), (1, 2.5)), ((1, 0), (0, 7))],
    })
    stats = ExecutionStats()
    got = build_shrunk_columns(database, tau, stats=stats)
    assert_same_columns(got, build_columns(shrink_database(database, tau)))
    assert stats["kernel.shrink_dropped"] == sum(map(len, database.values())) - got.n_rows


@pytest.mark.parametrize("tau", [float("nan"), -4, -0.5])
def test_shrink_columns_rejects_what_shrink_database_rejects(tau):
    columns = build_columns(_db({"R1": [((0, 0), (0, 5))]}))
    with pytest.raises(QueryError) as want:
        shrink_database({}, tau)
    with pytest.raises(QueryError) as got:
        shrink_columns(columns, tau)
    assert str(got.value) == str(want.value)
    with pytest.raises(QueryError):
        build_shrunk_columns(_db({}), tau)


# ----------------------------------------------------------------------
# Counters: the cold τ>0 route reports the object composition's.
# ----------------------------------------------------------------------
#: ``kernel.*`` counters of the cold τ>0 kernel route, recorded with the
#: object shrink (``prepare_run`` -> ``build_columns``) on the same
#: instances; ``kernel.shrink_dropped`` is new with the rank-space shrink.
#: ``kernel.semijoin_dropped`` is new with the semijoin pass, which keeps
#: ``kernel.rows`` of the shrunk rows (153 and 144 before it on star3)
#: and only the endpoints they use (202 and 193 before it).
PINNED = {
    ("star3", 3): (11, {"kernel.distinct_endpoints": 22, "kernel.interned_values": 168,
                        "kernel.rows": 33, "kernel.semijoin_dropped": 120,
                        "kernel.shrink_dropped": 3, "kernel.sort_calls": 1}),
    ("star3", 40): (8, {"kernel.distinct_endpoints": 16, "kernel.interned_values": 156,
                        "kernel.rows": 24, "kernel.semijoin_dropped": 120,
                        "kernel.shrink_dropped": 12, "kernel.sort_calls": 1}),
    ("line3", 0.3): (12, {"kernel.distinct_endpoints": 201, "kernel.interned_values": 140,
                          "kernel.rows": 152, "kernel.semijoin_dropped": 0,
                          "kernel.shrink_dropped": 0, "kernel.sort_calls": 1}),
    ("line3", 40): (8, {"kernel.distinct_endpoints": 189, "kernel.interned_values": 124,
                        "kernel.rows": 140, "kernel.semijoin_dropped": 0,
                        "kernel.shrink_dropped": 12, "kernel.sort_calls": 1}),
}
QUERIES = {"star3": STAR3, "line3": LINE3}


def _synthetic(name):
    return generate(QUERIES[name], SyntheticConfig(n_dangling=40, n_results=12, seed=5))


@pytest.mark.parametrize("name,tau", sorted(PINNED, key=repr))
def test_cold_route_counters_are_pinned(name, tau):
    stats = ExecutionStats()
    out = temporal_join(
        QUERIES[name], _synthetic(name), tau, algorithm="timefirst",
        engine="kernel", stats=stats,
    )
    counters = {k: v for k, v in sorted(stats.counters.items()) if k.startswith("kernel.")}
    assert (len(out), counters) == PINNED[name, tau]
    assert "phase.shrink" in stats.timers


def test_shrink_dropped_is_shown_by_explain_analyze():
    report = explain_analyze(
        STAR3, _synthetic("star3"), tau=40, algorithm="timefirst", engine="kernel"
    )
    assert report.stats["kernel.shrink_dropped"] == 12
    assert "kernel.shrink_dropped" in report.render()


def test_tau_view_counts_its_sort_and_drops():
    database = _synthetic("star3")
    stats = ExecutionStats()
    view = shrink_columns(build_columns(database), 40, stats=stats)
    assert stats["kernel.sort_calls"] == 1
    assert stats["kernel.shrink_dropped"] == sum(map(len, database.values())) - view.n_rows
    assert "phase.shrink" in stats.timers


# ----------------------------------------------------------------------
# Emission intervals: one per distinct endpoint pair.
# ----------------------------------------------------------------------
def _count_fast(monkeypatch):
    made = []
    original = Interval._fast

    def counting(lo, hi):
        made.append((lo, hi))
        return original(lo, hi)

    monkeypatch.setattr(Interval, "_fast", staticmethod(counting))
    return made


def test_intervals_built_once_per_distinct_pair(monkeypatch):
    columns = build_shrunk_columns(_synthetic("star3"), 3)
    pairs = set(zip(columns.row_lo, columns.row_hi))
    assert len(pairs) < columns.n_rows  # the instance shares pairs
    made = _count_fast(monkeypatch)
    got = columns.intervals()
    assert len(made) == len(pairs)
    by_pair = {}
    times = columns.rank_times
    for pair, interval in zip(zip(columns.row_lo, columns.row_hi), got):
        assert by_pair.setdefault(pair, interval) is interval
        assert (interval.lo, interval.hi) == (times[pair[0]], times[pair[1]])


def test_unpickled_subset_rebuilds_identical_intervals(monkeypatch):
    columns = build_shrunk_columns(_synthetic("line3"), 0.3)
    rng = random.Random(3)
    row_ids = sorted(rng.sample(range(columns.n_rows), columns.n_rows // 2))
    subset = columns.subset(row_ids)
    payload = pickle.dumps(subset)
    assert b"Interval" not in payload
    loaded = pickle.loads(payload)
    made = _count_fast(monkeypatch)
    rebuilt = loaded.intervals()
    assert len(made) == len(set(zip(loaded.row_lo, loaded.row_hi)))
    parent = columns.intervals()
    assert typed_intervals(rebuilt) == typed_intervals(parent[rid] for rid in row_ids)


# ----------------------------------------------------------------------
# workers=2 at τ>0 equals serial: key shards and time cuts.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,mode,partition",
    [
        ("star3", "inline", "key:"),
        ("star3", "process", "key:"),
        ("line3", "inline", "time:"),
        ("line3", "process", "time:"),
    ],
)
@pytest.mark.parametrize("tau", [3, 0.3])
def test_two_workers_equal_serial_at_positive_tau(name, mode, partition, tau):
    query, database = QUERIES[name], _synthetic(name)
    stats = ExecutionStats()
    got = parallel_temporal_join(
        query, database, tau=tau, algorithm="timefirst", workers=2, mode=mode,
        engine="kernel", stats=stats,
    )
    want = temporal_join(query, database, tau, algorithm="timefirst", engine="kernel")
    assert sorted(exact(got)) == sorted(exact(want))
    assert stats.notes["parallel.partition"].startswith(partition)
    assert stats["parallel.shard_results.total"] == len(got)
    assert stats["kernel.sort_calls"] == 1
    assert "kernel.shrink_dropped" in stats
