"""Tests for the comparison-model §3.2 state (BST + t⁺ heaps)."""

import pytest

from repro.algorithms.hierarchical import HierarchicalState
from repro.algorithms.hierarchical_cm import ComparisonHierarchicalState
from repro.algorithms.naive import naive_join
from repro.algorithms.timefirst import sweep, timefirst_join
from repro.core.errors import QueryError
from repro.core.interval import Interval
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation

from conftest import random_database


class TestConstruction:
    def test_rejects_non_hierarchical(self):
        with pytest.raises(QueryError):
            ComparisonHierarchicalState(JoinQuery.line(3))

    def test_accepts_hierarchical_families(self):
        for q in [JoinQuery.star(4), JoinQuery.hier(), JoinQuery.line(2)]:
            ComparisonHierarchicalState(q)


class TestHeaps:
    def test_earliest_expiry_tracks_minimum(self):
        q = JoinQuery.star(2)
        state = ComparisonHierarchicalState(q)
        state.insert("R1", (1, "h"), Interval(0, 9))
        state.insert("R1", (2, "h"), Interval(0, 4))
        assert state.earliest_expiry("R1", ("h",)) == 4
        state.delete("R1", (2, "h"), Interval(0, 4))
        assert state.earliest_expiry("R1", ("h",)) == 9
        state.delete("R1", (1, "h"), Interval(0, 9))
        assert state.earliest_expiry("R1", ("h",)) is None

    def test_empty_group(self):
        q = JoinQuery.star(2)
        state = ComparisonHierarchicalState(q)
        assert state.earliest_expiry("R1", ("nope",)) is None


class TestAgreement:
    @pytest.mark.parametrize(
        "query",
        [JoinQuery.star(2), JoinQuery.star(4), JoinQuery.hier(), JoinQuery.line(2)],
    )
    def test_matches_oracle(self, query, rng):
        for _ in range(5):
            db = random_database(query, rng, n=12, domain=3)
            got = sweep(query, db, ComparisonHierarchicalState(query))
            want = naive_join(query, db)
            assert got.normalized() == want.normalized()

    @pytest.mark.parametrize("query", [JoinQuery.star(3), JoinQuery.hier()])
    def test_matches_hashed_state(self, query, rng):
        for _ in range(5):
            db = random_database(query, rng, n=14, domain=3)
            cm = sweep(query, db, ComparisonHierarchicalState(query))
            hashed = sweep(query, db, HierarchicalState(query))
            assert cm.normalized() == hashed.normalized()

    def test_via_state_factory(self, rng):
        q = JoinQuery.star(3)
        db = random_database(q, rng, n=10, domain=3)
        got = timefirst_join(
            q, db,
            state_factory=lambda query, database: ComparisonHierarchicalState(query),
        )
        assert got.normalized() == naive_join(q, db).normalized()

    def test_registered_as_algorithm(self, rng):
        from repro.algorithms.registry import temporal_join

        q = JoinQuery.hier()
        db = random_database(q, rng, n=10, domain=3)
        got = temporal_join(q, db, algorithm="timefirst-cm")
        assert got.normalized() == naive_join(q, db).normalized()

    def test_duplicate_intervals_same_group(self):
        # Several tuples in one group sharing identical intervals stress
        # the multiset semantics of the sorted containers.
        q = JoinQuery.star(2)
        db = {
            "R1": TemporalRelation(
                "R1", ("x1", "y"), [((i, "h"), (0, 10)) for i in range(4)]
            ),
            "R2": TemporalRelation(
                "R2", ("x2", "y"), [((i, "h"), (0, 10)) for i in range(4)]
            ),
        }
        got = sweep(q, db, ComparisonHierarchicalState(q))
        assert len(got) == 16
        assert len(set(got.values_only())) == 16
