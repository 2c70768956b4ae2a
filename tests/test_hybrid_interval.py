"""Tests for HybridGuarded / HYBRID-INTERVAL (Algorithm 6)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.hybrid_interval import hybrid_interval_join
from repro.algorithms.naive import naive_join
from repro.core.errors import PlanError
from repro.core.interval import Interval
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.nontemporal.ghd import find_guarded_partition
from repro.obs import ExecutionStats

from conftest import random_database


class TestApplicability:
    def test_rejects_unguarded(self):
        q = JoinQuery.triangle()
        db = {n: TemporalRelation(n, q.edge(n), []) for n in q.edge_names}
        with pytest.raises(PlanError):
            hybrid_interval_join(q, db)

    def test_accepts_lines_and_stars(self, rng):
        for q in [JoinQuery.line(3), JoinQuery.star(3)]:
            db = random_database(q, rng, n=6, domain=3)
            hybrid_interval_join(q, db)  # no raise


class TestLine3IntervalJoinPath:
    """Line-3 exercises the two-group forward-scan shortcut."""

    def test_figure2(self, figure2_database):
        q = JoinQuery.line(3)
        got = hybrid_interval_join(q, figure2_database)
        want = naive_join(q, figure2_database)
        assert got.normalized() == want.normalized()

    def test_core_interval_prunes(self):
        # R2's tuple (core) has a narrow interval; residual pairs outside
        # it must be clipped away.
        q = JoinQuery.line(3)
        db = {
            "R1": TemporalRelation(
                "R1", ("x1", "x2"), [((1, 2), (0, 3)), ((9, 2), (5, 9))]
            ),
            "R2": TemporalRelation("R2", ("x2", "x3"), [((2, 3), (4, 20))]),
            "R3": TemporalRelation("R3", ("x3", "x4"), [((3, 4), (0, 30))]),
        }
        got = hybrid_interval_join(q, db)
        assert got.values_only() == [(9, 2, 3, 4)]
        assert got.rows[0][1] == Interval(5, 9)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_lines_match_naive(self, n, rng):
        q = JoinQuery.line(n)
        for _ in range(4):
            db = random_database(q, rng, n=10, domain=3)
            got = hybrid_interval_join(q, db)
            want = naive_join(q, db)
            assert got.normalized() == want.normalized()


class TestStarProductSweep:
    """Stars with k ≥ 3 leaves exercise the multi-group product sweep."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_stars_match_naive(self, n, rng):
        q = JoinQuery.star(n)
        for _ in range(3):
            db = random_database(q, rng, n=8, domain=3)
            got = hybrid_interval_join(q, db)
            want = naive_join(q, db)
            assert got.normalized() == want.normalized()

    def test_no_duplicate_results_on_shared_endpoints(self):
        q = JoinQuery.star(3)
        db = {
            f"R{i}": TemporalRelation(
                f"R{i}", (f"x{i}", "y"), [((j, "h"), (0, 10)) for j in range(3)]
            )
            for i in (1, 2, 3)
        }
        got = hybrid_interval_join(q, db)
        assert len(got) == 27
        assert len(set(got.values_only())) == 27


class TestDurable:
    def test_durable_line(self, rng):
        q = JoinQuery.line(3)
        for tau in [0, 3, 9]:
            db = random_database(q, rng, n=12, domain=3)
            got = hybrid_interval_join(q, db, tau=tau)
            want = naive_join(q, db, tau=tau)
            assert got.normalized() == want.normalized()

    def test_durable_interval_restoration(self):
        q = JoinQuery.line(3)
        db = {
            "R1": TemporalRelation("R1", ("x1", "x2"), [((1, 2), (0, 10))]),
            "R2": TemporalRelation("R2", ("x2", "x3"), [((2, 3), (2, 12))]),
            "R3": TemporalRelation("R3", ("x3", "x4"), [((3, 4), (0, 9))]),
        }
        got = hybrid_interval_join(q, db, tau=5)
        assert got.rows == [((1, 2, 3, 4), Interval(2, 9))]


class TestExplicitPartition:
    def test_custom_partition(self, rng):
        q = JoinQuery.line(3)
        gp = find_guarded_partition(q.hypergraph)
        db = random_database(q, rng, n=10, domain=3)
        got = hybrid_interval_join(q, db, partition=gp)
        assert got.normalized() == naive_join(q, db).normalized()

    def test_tpc_style_single_residual_group(self, rng):
        # Q_tpc3-like shape: one relation holds all the private attributes.
        q = JoinQuery(
            {
                "customer": ("CK",),
                "orders": ("OK", "CK"),
                "lineitem": ("OK", "PK", "SK"),
            }
        )
        for _ in range(3):
            db = random_database(q, rng, n=10, domain=3)
            got = hybrid_interval_join(q, db)
            want = naive_join(q, db)
            assert got.normalized() == want.normalized()


# ----------------------------------------------------------------------
# Filter-then-clip residuals: rows are filtered by the core interval and
# only emitted intervals are clipped (exact by Helly's theorem in 1-D).
# ----------------------------------------------------------------------
STAR_WITH_CORE = JoinQuery(
    {"R0": ("y",), "R1": ("x1", "y"), "R2": ("x2", "y"), "R3": ("x3", "y")}
)
_INF = float("inf")


def _line3(r1, r2, r3):
    """Line-3 instance from per-relation ``[(values, (lo, hi))]`` rows."""
    q = JoinQuery.line(3)
    return q, {
        name: TemporalRelation(name, q.edge(name), rows)
        for name, rows in zip(q.edge_names, (r1, r2, r3))
    }


class TestFilterThenClip:
    @pytest.mark.parametrize("strategy", ["auto", "sweep"])
    def test_helly_single_instant_result(self, strategy):
        # R1 and R3 overlap on [1, 5], almost all of it before the core
        # [5, 10]; each touches the core only at its closed endpoint 5.
        q, db = _line3(
            [((1, 2), (0, 5))], [((2, 3), (5, 10))], [((3, 4), (1, 5))]
        )
        got = hybrid_interval_join(q, db, residual_strategy=strategy)
        assert got.rows == [((1, 2, 3, 4), Interval(5, 5))]
        assert got.normalized() == naive_join(q, db).normalized()

    @pytest.mark.parametrize("strategy", ["auto", "sweep"])
    def test_helly_single_instant_product_sweep(self, strategy):
        db = {
            "R0": TemporalRelation("R0", ("y",), [((0,), (5, 10))]),
            "R1": TemporalRelation("R1", ("x1", "y"), [((1, 0), (0, 5))]),
            "R2": TemporalRelation("R2", ("x2", "y"), [((2, 0), (-_INF, 5))]),
            "R3": TemporalRelation("R3", ("x3", "y"), [((3, 0), (2, 7))]),
        }
        got = hybrid_interval_join(STAR_WITH_CORE, db, residual_strategy=strategy)
        assert got.rows == [((0, 1, 2, 3), Interval(5, 5))]

    @pytest.mark.parametrize("strategy", ["auto", "sweep"])
    def test_instant_core_interval(self, strategy):
        q, db = _line3(
            [
                ((1, 2), (0, 10)),
                ((5, 2), (4, 4)),
                ((6, 2), (5, 6)),  # misses the core: filtered out
                ((7, 2), (-_INF, 4)),
            ],
            [((2, 3), (4, 4))],
            [((3, 4), (4, _INF)), ((3, 8), (0, 3))],
        )
        got = hybrid_interval_join(q, db, residual_strategy=strategy)
        assert got.normalized() == naive_join(q, db).normalized()
        assert sorted(got.values_only()) == [(1, 2, 3, 4), (5, 2, 3, 4), (7, 2, 3, 4)]
        assert {iv for _, iv in got} == {Interval(4, 4)}

    @pytest.mark.parametrize(
        "query, want",
        [
            (
                JoinQuery.line(4),
                {
                    "hi.core_tuples": 27, "hi.core_pruned": 20, "hi.hull_pruned": 4,
                    "hi.interval_joins": 7, "results": 14,
                    "ij.scan.count": 7, "ij.scan.total": 23, "ij.scan.max": 4,
                    "ij.pairs.count": 7, "ij.pairs.total": 14, "ij.pairs.max": 3,
                },
            ),
            (
                STAR_WITH_CORE,
                {
                    "hi.core_tuples": 3, "hi.core_pruned": 2, "hi.hull_pruned": 2,
                    "hi.product_sweeps": 1, "results": 1,
                },
            ),
        ],
        ids=["line4", "star-with-core"],
    )
    def test_counters_pinned(self, query, want):
        # Values recorded with the clip-every-row implementation: the
        # filtered row sets are exactly the old clipped ones. The hulls
        # move no core tuple out of ``hi.core_pruned``; ``hi.hull_pruned``
        # counts those of them that died in the core join.
        db = random_database(
            query, random.Random(15), n=24, domain=3, time_span=40, max_duration=20
        )
        stats = ExecutionStats()
        hybrid_interval_join(query, db, stats=stats)
        assert stats.counters == want


# Endpoints from a small int range plus +/-inf, so duplicate, touching
# and zero-length intervals are common.
_lo = st.one_of(st.integers(min_value=-4, max_value=6), st.just(-_INF))
_dur = st.one_of(st.integers(min_value=0, max_value=5), st.just(_INF))


@st.composite
def _guarded_instance(draw):
    query = draw(st.sampled_from([JoinQuery.line(3), JoinQuery.line(4), STAR_WITH_CORE]))
    database = {}
    for name in query.edge_names:
        attrs = query.edge(name)
        raw = draw(
            st.lists(
                st.tuples(st.tuples(*[st.integers(0, 2) for _ in attrs]), _lo, _dur),
                max_size=6,
            )
        )
        rows = {}
        for values, lo, dur in raw:
            hi = _INF if dur == _INF else (dur if lo == -_INF else lo + dur)
            rows.setdefault(values, Interval(lo, hi))
        database[name] = TemporalRelation(name, attrs, list(rows.items()))
    return query, database


@settings(max_examples=80, deadline=None)
@given(
    instance=_guarded_instance(),
    tau=st.sampled_from([0, 3]),
    strategy=st.sampled_from(["auto", "sweep"]),
)
def test_matches_naive_on_edge_endpoints(instance, tau, strategy):
    query, database = instance
    got = hybrid_interval_join(query, database, tau=tau, residual_strategy=strategy)
    assert got.normalized() == naive_join(query, database, tau=tau).normalized()
