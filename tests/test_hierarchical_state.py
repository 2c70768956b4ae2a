"""White-box tests for the §3.2 hierarchical sweep structure."""

import pytest

from repro.algorithms.hierarchical import HierarchicalState
from repro.algorithms.naive import naive_join
from repro.algorithms.timefirst import sweep, timefirst_join
from repro.core.errors import QueryError
from repro.core.interval import Interval
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.core.result import JoinResultSet

from conftest import random_database


class TestConstruction:
    def test_rejects_non_hierarchical(self):
        with pytest.raises(QueryError):
            HierarchicalState(JoinQuery.line(3))

    def test_accepts_all_hierarchical_families(self):
        for q in [JoinQuery.star(3), JoinQuery.hier(), JoinQuery.line(2)]:
            HierarchicalState(q)


class TestIncrementalMaintenance:
    def test_insert_then_enumerate_single_relation(self):
        q = JoinQuery({"R": ("a", "b")})
        state = HierarchicalState(q)
        out = JoinResultSet(q.attrs)
        state.insert("R", (1, 2), Interval(0, 5))
        state.enumerate_results("R", (1, 2), Interval(0, 5), out)
        assert out.rows == [((1, 2), Interval(0, 5))]

    def test_delete_removes_from_results(self):
        q = JoinQuery.star(2)
        state = HierarchicalState(q)
        out = JoinResultSet(q.attrs)
        state.insert("R1", (1, "h"), Interval(0, 9))
        state.insert("R2", (2, "h"), Interval(0, 9))
        state.delete("R2", (2, "h"), Interval(0, 9))
        state.enumerate_results("R1", (1, "h"), Interval(0, 9), out)
        assert len(out) == 0

    def test_enumerate_requires_all_branches(self):
        q = JoinQuery.star(3)
        state = HierarchicalState(q)
        out = JoinResultSet(q.attrs)
        state.insert("R1", (1, "h"), Interval(0, 9))
        state.insert("R2", (2, "h"), Interval(0, 9))
        # R3 missing: no results.
        state.enumerate_results("R1", (1, "h"), Interval(0, 9), out)
        assert len(out) == 0
        state.insert("R3", (3, "h"), Interval(0, 9))
        state.enumerate_results("R1", (1, "h"), Interval(0, 9), out)
        assert out.values_only() == [(1, "h", 2, 3)]

    def test_group_mismatch_blocks(self):
        q = JoinQuery.star(2)
        state = HierarchicalState(q)
        out = JoinResultSet(q.attrs)
        state.insert("R1", (1, "h1"), Interval(0, 9))
        state.insert("R2", (2, "h2"), Interval(0, 9))  # different center
        state.enumerate_results("R1", (1, "h1"), Interval(0, 9), out)
        assert len(out) == 0

    def test_result_interval_is_intersection(self):
        q = JoinQuery.star(2)
        state = HierarchicalState(q)
        out = JoinResultSet(q.attrs)
        state.insert("R1", (1, "h"), Interval(0, 7))
        state.insert("R2", (2, "h"), Interval(3, 12))
        state.enumerate_results("R1", (1, "h"), Interval(0, 7), out)
        assert out.rows == [((1, "h", 2), Interval(3, 7))]

    def test_reinsert_after_delete(self):
        q = JoinQuery.star(2)
        state = HierarchicalState(q)
        out = JoinResultSet(q.attrs)
        state.insert("R1", (1, "h"), Interval(0, 9))
        state.insert("R2", (2, "h"), Interval(0, 9))
        state.delete("R1", (1, "h"), Interval(0, 9))
        state.insert("R1", (1, "h"), Interval(2, 5))
        state.enumerate_results("R2", (2, "h"), Interval(0, 9), out)
        assert out.rows == [((1, "h", 2), Interval(2, 5))]


class TestFigure5Example:
    def test_example5_enumeration(self, figure5_database):
        """Example 5 of the paper: REPORT for (a1, b1) ∈ R1 on Q_hier."""
        q = JoinQuery.hier()
        state = HierarchicalState(q)
        for name, rel in figure5_database.items():
            for values, interval in rel:
                state.insert(name, values, interval)
        out = JoinResultSet(q.attrs)
        a = ("a1", "b1")
        state.enumerate_results("R1", a, Interval.always(), out)
        # S(root, a) = 2 (D-side) × 1 (E) × [2 (c1: f1,f2 × g1) + 1 (c2)]
        # = 2 × 1 × 3 = 6 results.
        assert len(out) == 6
        # Spot-check one tuple: attrs order (A, B, D, E, C, F, G).
        assert ("a1", "b1", "d1", "e1", "c1", "f1", "g1") in out.values_only()
        assert ("a1", "b1", "d2", "e1", "c2", "f1", "g2") in out.values_only()


class TestSweepIntegration:
    @pytest.mark.parametrize(
        "query",
        [JoinQuery.star(2), JoinQuery.star(4), JoinQuery.hier(), JoinQuery.line(2)],
    )
    def test_matches_naive(self, query, rng):
        for _ in range(5):
            db = random_database(query, rng, n=12, domain=3)
            got = sweep(query, db, HierarchicalState(query))
            want = naive_join(query, db)
            assert got.normalized() == want.normalized()

    def test_r_hierarchical_via_reduction(self, rng):
        query = JoinQuery(
            {"R1": ("a", "b", "c"), "R2": ("a", "b"), "R3": ("b", "c")}
        )
        assert not query.is_hierarchical and query.is_r_hierarchical
        for _ in range(4):
            db = random_database(query, rng, n=10, domain=3)
            got = timefirst_join(query, db)
            want = naive_join(query, db)
            assert got.normalized() == want.normalized()

    def test_duplicate_free_with_shared_endpoints(self):
        # Many tuples share the same right endpoint: each result must be
        # enumerated exactly once.
        q = JoinQuery.star(2)
        db = {
            "R1": TemporalRelation(
                "R1", ("x1", "y"), [((i, "h"), (0, 10)) for i in range(5)]
            ),
            "R2": TemporalRelation(
                "R2", ("x2", "y"), [((i, "h"), (0, 10)) for i in range(5)]
            ),
        }
        got = timefirst_join(q, db)
        assert len(got) == 25
        assert len(set(got.values_only())) == 25

    def test_zero_length_intervals(self):
        q = JoinQuery.star(2)
        db = {
            "R1": TemporalRelation("R1", ("x1", "y"), [((1, "h"), (5, 5))]),
            "R2": TemporalRelation("R2", ("x2", "y"), [((2, "h"), (5, 5))]),
        }
        got = timefirst_join(q, db)
        assert got.rows == [((1, "h", 2), Interval(5, 5))]

    def test_touching_endpoints_join(self):
        q = JoinQuery.star(2)
        db = {
            "R1": TemporalRelation("R1", ("x1", "y"), [((1, "h"), (0, 5))]),
            "R2": TemporalRelation("R2", ("x2", "y"), [((2, "h"), (5, 9))]),
        }
        got = timefirst_join(q, db)
        assert got.rows == [((1, "h", 2), Interval(5, 5))]
