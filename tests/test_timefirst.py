"""Tests for the TIMEFIRST driver and the generic GHD sweep state."""

import pytest

from repro.algorithms.generic_state import GenericGHDState
from repro.algorithms.naive import naive_join
from repro.algorithms.timefirst import sweep, timefirst_join
from repro.core.interval import Interval
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.core.result import JoinResultSet
from repro.obs import ExecutionStats

from conftest import random_database


class TestGenericState:
    @pytest.mark.parametrize(
        "query",
        [
            JoinQuery.line(3),
            JoinQuery.line(4),
            JoinQuery.triangle(),
            JoinQuery.cycle(4),
            JoinQuery.cycle(5),
            JoinQuery.bowtie(),
        ],
    )
    def test_matches_naive(self, query, rng):
        for _ in range(4):
            db = random_database(query, rng, n=10, domain=3)
            state = GenericGHDState(query)
            got = sweep(query, db, state)
            want = naive_join(query, db)
            assert got.normalized() == want.normalized()

    def test_acyclic_uses_trivial_ghd(self):
        state = GenericGHDState(JoinQuery.line(4))
        assert state.ghd.is_trivial()

    def test_cyclic_uses_fhtw_ghd(self):
        state = GenericGHDState(JoinQuery.triangle())
        assert len(state.ghd.bags) == 1

    def test_insert_delete_bookkeeping(self):
        q = JoinQuery.line(2)
        state = GenericGHDState(q)
        state.insert("R1", (1, 2), Interval(0, 5))
        assert (1, 2) in state._active["R1"]
        assert state._attr_index["R1"]["x2"][2] == {(1, 2)}
        state.delete("R1", (1, 2), Interval(0, 5))
        assert not state._active["R1"]
        assert 2 not in state._attr_index["R1"]["x2"]

    def test_enumerate_prunes_early(self):
        # No matching partner: enumerate returns without materializing.
        q = JoinQuery.line(2)
        state = GenericGHDState(q)
        out = JoinResultSet(q.attrs)
        state.insert("R1", (1, 2), Interval(0, 5))
        state.enumerate_results("R1", (1, 2), Interval(0, 5), out)
        assert len(out) == 0


    def test_reducer_emptied_expiry_counts_as_pruned(self):
        # The restriction keeps a row in every relation, but no R2 row
        # meets both an R3 and an R4 row: the bottom-up pass empties R2.
        q = JoinQuery(
            {"R1": ("a", "b"), "R2": ("b", "c"), "R3": ("c", "d"), "R4": ("c", "e")}
        )
        stats = ExecutionStats()
        state = GenericGHDState(q, stats=stats)
        rows = {"R1": [(0, 1)], "R2": [(1, 1), (1, 2)], "R3": [(1, 5)], "R4": [(2, 6)]}
        for name, values in rows.items():
            for v in values:
                state.insert(name, v, Interval(0, 9))
        out = JoinResultSet(q.attrs)
        state.enumerate_results("R1", (0, 1), Interval(0, 9), out)
        assert len(out) == 0
        state.record(5, 1, 0)
        assert stats.counters == {"ghd.restrict_pruned": 1}

    def test_acyclic_counters(self):
        q = JoinQuery.line(3)
        stats = ExecutionStats()
        state = GenericGHDState(q, stats=stats)
        rows = {"R1": [(0, 1), (5, 1)], "R2": [(1, 2), (1, 3)], "R3": [(2, 7), (4, 4)]}
        for name, values in rows.items():
            for v in values:
                state.insert(name, v, Interval(0, 9))
        out = JoinResultSet(q.attrs)
        state.enumerate_results("R2", (1, 2), Interval(0, 9), out)
        state.enumerate_results("R2", (1, 3), Interval(0, 9), out)
        assert sorted(values for values, _ in out) == [(0, 1, 2, 7), (5, 1, 2, 7)]
        state.record(6, 2, 2)
        # One observation per relation of the enumerating expiry: the
        # rows left after the restriction and the reducer (R1 2, R2 1, R3 1).
        assert stats.counters == {
            "ghd.restrict_pruned": 1, "ghd.enumerations": 1,
            "ghd.bag_rows.count": 3, "ghd.bag_rows.total": 4, "ghd.bag_rows.max": 2,
            "ghd.yannakakis_passes": 1,
        }


class TestTimefirstDispatch:
    def test_hierarchical_query_uses_hierarchical_state(self, rng):
        # Indirect check: results still correct and attribute layout right.
        q = JoinQuery.star(3)
        db = random_database(q, rng, n=10, domain=3)
        got = timefirst_join(q, db)
        assert got.attrs == q.attrs
        assert got.normalized() == naive_join(q, db).normalized()

    def test_explicit_state_factory(self, rng):
        q = JoinQuery.star(3)
        db = random_database(q, rng, n=8, domain=3)
        got = timefirst_join(
            q, db, state_factory=lambda query, database: GenericGHDState(query)
        )
        assert got.normalized() == naive_join(q, db).normalized()

    def test_durable_join(self, rng):
        q = JoinQuery.line(3)
        for tau in [0, 3, 8]:
            db = random_database(q, rng, n=12, domain=3)
            got = timefirst_join(q, db, tau=tau)
            want = naive_join(q, db, tau=tau)
            assert got.normalized() == want.normalized()

    def test_durable_results_keep_original_intervals(self):
        q = JoinQuery.line(2)
        db = {
            "R1": TemporalRelation("R1", ("x1", "x2"), [((1, 2), (0, 10))]),
            "R2": TemporalRelation("R2", ("x2", "x3"), [((2, 3), (2, 20))]),
        }
        got = timefirst_join(q, db, tau=6)
        # Result interval must be the un-shrunk [2, 10].
        assert got.rows == [((1, 2, 3), Interval(2, 10))]

    def test_empty_database(self):
        q = JoinQuery.line(2)
        db = {
            "R1": TemporalRelation("R1", ("x1", "x2")),
            "R2": TemporalRelation("R2", ("x2", "x3")),
        }
        assert len(timefirst_join(q, db)) == 0

    def test_negative_and_float_times(self):
        q = JoinQuery.line(2)
        db = {
            "R1": TemporalRelation("R1", ("x1", "x2"), [((1, 2), (-5.5, 0.5))]),
            "R2": TemporalRelation("R2", ("x2", "x3"), [((2, 3), (-1.25, 9.0))]),
        }
        got = timefirst_join(q, db)
        assert got.rows == [((1, 2, 3), Interval(-1.25, 0.5))]

    def test_unbounded_intervals(self):
        q = JoinQuery.line(2)
        db = {
            "R1": TemporalRelation("R1", ("x1", "x2"), [((1, 2), Interval.always())]),
            "R2": TemporalRelation("R2", ("x2", "x3"), [((2, 3), (4, 7))]),
        }
        got = timefirst_join(q, db)
        assert got.rows == [((1, 2, 3), Interval(4, 7))]

    def test_string_and_mixed_domains(self):
        q = JoinQuery.star(2)
        db = {
            "R1": TemporalRelation("R1", ("x1", "y"), [(("alpha", 0), (0, 4))]),
            "R2": TemporalRelation("R2", ("x2", "y"), [((17, 0), (2, 6))]),
        }
        got = timefirst_join(q, db)
        assert got.values_only() == [("alpha", 0, 17)]
