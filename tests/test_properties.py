"""Hypothesis property-based tests for core invariants."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.algorithms.interval_join import forward_scan_join
from repro.algorithms.naive import naive_join
from repro.algorithms.registry import temporal_join
from repro.core.interval import Interval, IntervalSet, intersect_all
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.datastructures.heap import AddressableHeap

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
intervals = st.tuples(
    st.integers(min_value=-50, max_value=50), st.integers(min_value=0, max_value=40)
).map(lambda t: Interval(t[0], t[0] + t[1]))

interval_lists = st.lists(intervals, max_size=12)


def relation_strategy(name, attrs, max_rows=10, domain=3, span=25):
    row = st.tuples(
        st.tuples(*[st.integers(min_value=0, max_value=domain - 1) for _ in attrs]),
        st.tuples(
            st.integers(min_value=0, max_value=span),
            st.integers(min_value=0, max_value=span // 2),
        ),
    )

    def build(rows):
        dedup = {}
        for values, (lo, dur) in rows:
            dedup.setdefault(values, Interval(lo, lo + dur))
        return TemporalRelation(name, attrs, list(dedup.items()))

    return st.lists(row, max_size=max_rows).map(build)


def database_strategy(query, **kwargs):
    names = query.edge_names
    return st.tuples(
        *[relation_strategy(n, query.edge(n), **kwargs) for n in names]
    ).map(lambda rels: dict(zip(names, rels)))


# ----------------------------------------------------------------------
# Interval algebra
# ----------------------------------------------------------------------
@given(intervals, intervals)
def test_intersection_commutative(a, b):
    assert a.intersect(b) == b.intersect(a)


@given(intervals, intervals, intervals)
def test_intersection_associative(a, b, c):
    left = a.intersect(b)
    left = left.intersect(c) if left else None
    right = b.intersect(c)
    right = a.intersect(right) if right else None
    assert left == right


@given(intervals, intervals)
def test_intersect_consistent_with_predicate(a, b):
    assert (a.intersect(b) is not None) == a.intersects(b)


@given(intervals, st.integers(min_value=0, max_value=30))
def test_shrink_expand_roundtrip(iv, amount):
    shrunk = iv.shrink(amount)
    if shrunk is not None:
        assert shrunk.expand(amount) == iv


@given(interval_lists)
def test_intersect_all_is_fold(ivs):
    expected = Interval.always()
    for iv in ivs:
        got = expected.intersect(iv)
        if got is None:
            expected = None
            break
        expected = got
    assert intersect_all(ivs) == expected


@given(interval_lists)
def test_interval_set_disjoint_and_sorted(ivs):
    s = IntervalSet(ivs)
    members = list(s)
    for left, right in zip(members, members[1:]):
        assert left.hi < right.lo  # strictly disjoint, no touching


@given(interval_lists, st.integers(min_value=-50, max_value=60))
def test_interval_set_membership_matches_union(ivs, t):
    s = IntervalSet(ivs)
    assert s.contains(t) == any(iv.contains(t) for iv in ivs)


@given(interval_lists, interval_lists)
def test_interval_set_intersection_pointwise(xs, ys):
    a, b = IntervalSet(xs), IntervalSet(ys)
    joint = a.intersect(b)
    for t in range(-50, 61, 7):
        assert joint.contains(t) == (a.contains(t) and b.contains(t))


# ----------------------------------------------------------------------
# Data structures
# ----------------------------------------------------------------------
@given(st.lists(st.tuples(st.integers(), st.integers()), max_size=40))
def test_heap_sorts_any_input(pairs):
    heap = AddressableHeap()
    for i, (key, _) in enumerate(pairs):
        heap.push(key, i)
    out = [heap.pop()[0] for _ in range(len(pairs))]
    assert out == sorted(k for k, _ in pairs)


@given(st.lists(intervals, max_size=15), st.lists(intervals, max_size=15))
def test_forward_scan_matches_brute_force(xs, ys):
    left = [(i, iv) for i, iv in enumerate(xs)]
    right = [(j, iv) for j, iv in enumerate(ys)]
    got = sorted(forward_scan_join(left, right))
    want = sorted(
        (i, j, ia.intersect(ib))
        for i, ia in left
        for j, ib in right
        if ia.intersects(ib)
    )
    assert got == want


# ----------------------------------------------------------------------
# Join semantics
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(database_strategy(JoinQuery.line(3)), st.sampled_from([0, 2, 5]))
def test_line3_all_algorithms_match_oracle(db, tau):
    query = JoinQuery.line(3)
    want = naive_join(query, db, tau=tau).normalized()
    for algorithm in ["timefirst", "baseline", "hybrid", "hybrid-interval", "joinfirst"]:
        got = temporal_join(query, db, tau=tau, algorithm=algorithm)
        assert got.normalized() == want


@settings(max_examples=30, deadline=None)
@given(database_strategy(JoinQuery.star(3)))
def test_star_hierarchical_sweep_matches_oracle(db):
    query = JoinQuery.star(3)
    want = naive_join(query, db).normalized()
    got = temporal_join(query, db, algorithm="timefirst")
    assert got.normalized() == want


@settings(max_examples=25, deadline=None)
@given(database_strategy(JoinQuery.triangle(), max_rows=8))
def test_triangle_hybrid_matches_oracle(db):
    query = JoinQuery.triangle()
    want = naive_join(query, db).normalized()
    got = temporal_join(query, db, algorithm="hybrid")
    assert got.normalized() == want


@settings(max_examples=30, deadline=None)
@given(database_strategy(JoinQuery.line(3)), st.integers(min_value=0, max_value=12))
def test_durable_equals_filtered(db, tau):
    query = JoinQuery.line(3)
    durable = temporal_join(query, db, tau=tau, algorithm="timefirst")
    filtered = temporal_join(query, db, algorithm="timefirst").filter_durable(tau)
    assert durable.normalized() == filtered.normalized()


@settings(max_examples=30, deadline=None)
@given(database_strategy(JoinQuery.line(3)))
def test_result_intervals_are_exact_intersections(db):
    query = JoinQuery.line(3)
    lookups = {
        name: {v: iv for v, iv in db[name]} for name in query.edge_names
    }
    out = temporal_join(query, db, algorithm="timefirst")
    for values, interval in out:
        binding = dict(zip(query.attrs, values))
        parts = []
        for name in query.edge_names:
            key = tuple(binding[a] for a in query.edge(name))
            parts.append(lookups[name][key])
        assert intersect_all(parts) == interval


@settings(max_examples=30, deadline=None)
@given(database_strategy(JoinQuery.star(3)))
def test_cm_state_matches_hashed_state(db):
    from repro.algorithms.hierarchical import HierarchicalState
    from repro.algorithms.hierarchical_cm import ComparisonHierarchicalState
    from repro.algorithms.timefirst import sweep

    query = JoinQuery.star(3)
    hashed = sweep(query, db, HierarchicalState(query))
    cm = sweep(query, db, ComparisonHierarchicalState(query))
    assert hashed.normalized() == cm.normalized()


@settings(max_examples=30, deadline=None)
@given(database_strategy(JoinQuery.star(3)))
def test_online_matches_offline_property(db):
    from repro.algorithms.online import arrivals_from_database, stream_temporal_join
    from repro.core.result import JoinResultSet

    query = JoinQuery.star(3)
    streamed = JoinResultSet(
        query.attrs, stream_temporal_join(query, arrivals_from_database(db))
    )
    offline = naive_join(query, db)
    assert streamed.normalized() == offline.normalized()


@settings(max_examples=30, deadline=None)
@given(database_strategy(JoinQuery.line(3)), st.integers(min_value=1, max_value=6))
def test_topk_prefix_of_full_ranking(db, k):
    from repro.algorithms.topk import top_k_durable

    query = JoinQuery.line(3)
    full = sorted(
        naive_join(query, db).rows,
        key=lambda row: (-row[1].duration, row[0], row[1].lo),
    )
    got = top_k_durable(query, db, k, break_ties=True)
    assert list(got.rows) == full[:k]
