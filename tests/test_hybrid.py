"""Tests for HYBRID (Algorithm 5) and bag materialization."""

import pytest

from repro.algorithms.hybrid import hybrid_join, materialize_bag, select_hybrid_ghd
from repro.algorithms.naive import naive_join
from repro.core.errors import PlanError
from repro.core.interval import Interval
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.nontemporal.ghd import ghd_from_partition

from conftest import random_database


class TestMaterializeBag:
    def test_full_edges_carry_intervals(self):
        q = JoinQuery.line(3)
        db = {
            "R1": TemporalRelation("R1", ("x1", "x2"), [((1, 2), (0, 10))]),
            "R2": TemporalRelation("R2", ("x2", "x3"), [((2, 3), (5, 20))]),
            "R3": TemporalRelation("R3", ("x3", "x4"), [((3, 4), (0, 30))]),
        }
        bag = materialize_bag(q.hypergraph, db, ("x1", "x2", "x3"))
        rows = {v: iv for v, iv in bag}
        key = tuple(sorted(bag.attrs))
        assert key == ("x1", "x2", "x3")
        # Interval = R1 ∩ R2 (both fully inside the bag) = [5, 10].
        assert list(rows.values()) == [Interval(5, 10)]

    def test_carried_interval_is_the_full_edges_intersection(self):
        q = JoinQuery.line(3)
        db = {
            "R1": TemporalRelation("R1", ("x1", "x2"), [((1, 2), (0, 10))]),
            "R2": TemporalRelation(
                "R2", ("x2", "x3"), [((2, 3), (4, 6)), ((2, 5), (8, 9))]
            ),
            "R3": TemporalRelation("R3", ("x3", "x4"), [((3, 4), (0, 100))]),
        }
        bag = materialize_bag(q.hypergraph, db, ("x1", "x2"))
        # π_{x2}(R2)'s hull [4, 9] meets R1's [0, 10]: the row stays, and
        # carries [0, 10] (line 7), not the hull-narrowed [4, 9].
        assert [iv for _, iv in bag] == [Interval(0, 10)]

    def test_row_missing_a_partial_hull_is_dropped(self):
        q = JoinQuery.line(2)
        db = {
            "R1": TemporalRelation(
                "R1", ("x1", "x2"), [((1, 2), (0, 10)), ((1, 7), (0, 10))]
            ),
            "R2": TemporalRelation(
                "R2", ("x2", "x3"),
                [((2, 3), (100, 200)), ((2, 4), (150, 300)), ((7, 3), (5, 6))],
            ),
        }
        bag = materialize_bag(q.hypergraph, db, ("x1", "x2"))
        # x2=2's hull [100, 300] misses R1's [0, 10]: no result can hold
        # that row. x2=7's hull [5, 6] meets it.
        assert [dict(zip(bag.attrs, v))["x2"] for v, _ in bag] == [7]
        assert naive_join(q, db).values_only() == [(1, 7, 3)]

    def test_touching_closed_endpoints_keep_the_row(self):
        q = JoinQuery.line(2)
        db = {
            "R1": TemporalRelation("R1", ("x1", "x2"), [((1, 2), (10, 20))]),
            "R2": TemporalRelation(
                "R2", ("x2", "x3"), [((2, 3), (0, 4)), ((2, 4), (3, 10.0))]
            ),
        }
        bag = materialize_bag(q.hypergraph, db, ("x1", "x2"))
        # The hull's hi == the row's lo: closed intervals share 10.
        assert [iv for _, iv in bag] == [Interval(10, 20)]
        assert len(naive_join(q, db)) == 1

    def test_semijoin_effect_of_partial_edges(self):
        q = JoinQuery.line(2)
        db = {
            "R1": TemporalRelation(
                "R1", ("x1", "x2"), [((1, 2), (0, 10)), ((1, 9), (0, 10))]
            ),
            "R2": TemporalRelation("R2", ("x2", "x3"), [((2, 3), (0, 10))]),
        }
        bag = materialize_bag(q.hypergraph, db, ("x1", "x2"))
        # x2=9 has no support in π_{x2}(R2): dropped by GenericJoin.
        assert [dict(zip(bag.attrs, v))["x2"] for v, _ in bag] == [2]

    def test_empty_interval_bag_tuples_dropped(self):
        hg = JoinQuery({"R1": ("a", "b"), "R2": ("a", "b")}).hypergraph
        db = {
            "R1": TemporalRelation("R1", ("a", "b"), [((1, 2), (0, 5))]),
            "R2": TemporalRelation("R2", ("a", "b"), [((1, 2), (50, 60))]),
        }
        bag = materialize_bag(hg, db, ("a", "b"))
        assert len(bag) == 0


class TestSelectGHD:
    def test_modes(self):
        hg = JoinQuery.cycle(4).hypergraph
        f = select_hybrid_ghd(hg, "fhtw")
        h = select_hybrid_ghd(hg, "hierarchical")
        a = select_hybrid_ghd(hg, "auto")
        assert f.is_valid() and h.is_valid() and a.is_valid()
        assert h.is_hierarchical()

    def test_bad_mode(self):
        with pytest.raises(PlanError):
            select_hybrid_ghd(JoinQuery.cycle(4).hypergraph, "banana")

    def test_auto_prefers_hierarchical_when_cheap(self):
        # C4: fhtw = 2, hhtw = 2 → hierarchical wins the tie (h ≤ f+1).
        ghd = select_hybrid_ghd(JoinQuery.cycle(4).hypergraph, "auto")
        assert ghd.is_hierarchical()


class TestHybridJoin:
    @pytest.mark.parametrize(
        "query",
        [
            JoinQuery.line(3),
            JoinQuery.star(3),
            JoinQuery.triangle(),
            JoinQuery.cycle(4),
            JoinQuery.cycle(5),
            JoinQuery.bowtie(),
            JoinQuery.hier(),
        ],
    )
    def test_matches_naive(self, query, rng):
        for _ in range(3):
            db = random_database(query, rng, n=10, domain=3)
            got = hybrid_join(query, db)
            want = naive_join(query, db)
            assert got.normalized() == want.normalized()

    @pytest.mark.parametrize("mode", ["auto", "fhtw", "hierarchical"])
    def test_modes_agree(self, mode, rng):
        query = JoinQuery.cycle(4)
        db = random_database(query, rng, n=12, domain=3)
        got = hybrid_join(query, db, mode=mode)
        want = naive_join(query, db)
        assert got.normalized() == want.normalized()

    def test_durable(self, rng):
        query = JoinQuery.cycle(4)
        for tau in [0, 4, 10]:
            db = random_database(query, rng, n=12, domain=3)
            got = hybrid_join(query, db, tau=tau)
            want = naive_join(query, db, tau=tau)
            assert got.normalized() == want.normalized()

    def test_explicit_ghd(self, rng):
        query = JoinQuery.line(3)
        ghd = ghd_from_partition(query.hypergraph, [["R1", "R2"], ["R3"]])
        db = random_database(query, rng, n=10, domain=3)
        got = hybrid_join(query, db, ghd=ghd)
        assert got.normalized() == naive_join(query, db).normalized()

    def test_track_intermediates(self, rng):
        query = JoinQuery.cycle(4)
        db = random_database(query, rng, n=12, domain=3)
        sizes = []
        hybrid_join(query, db, track_intermediates=sizes)
        ghd = select_hybrid_ghd(query.hypergraph, "auto")
        assert len(sizes) == len(ghd.bags)
        assert all(s >= 0 for s in sizes)
