"""Tests tying guarded partitions back to Definition 13."""

import pytest

from repro.core.query import JoinQuery
from repro.nontemporal.ghd import (
    ghd_from_partition,
    guarded_ghd,
    hhtw_ghd,
    is_guarded,
)


class TestGuardedGHD:
    @pytest.mark.parametrize(
        "query",
        [JoinQuery.line(3), JoinQuery.line(4), JoinQuery.line(5),
         JoinQuery.star(3), JoinQuery.star(5)],
    )
    def test_construction_is_guarded_per_def13(self, query):
        ghd = guarded_ghd(query.hypergraph)
        assert ghd is not None
        assert ghd.is_valid()
        assert is_guarded(ghd)

    @pytest.mark.parametrize(
        "query", [JoinQuery.triangle(), JoinQuery.cycle(4), JoinQuery.bowtie()]
    )
    def test_unguarded_queries_give_none(self, query):
        assert guarded_ghd(query.hypergraph) is None

    def test_line3_bags_match_table1(self):
        ghd = guarded_ghd(JoinQuery.line(3).hypergraph)
        bag_sets = sorted(frozenset(b) for b in ghd.bags.values())
        assert bag_sets == [
            frozenset({"x1", "x2", "x3"}),
            frozenset({"x2", "x3", "x4"}),
        ]

    def test_every_edge_covered(self):
        for query in [JoinQuery.line(4), JoinQuery.star(4)]:
            hg = query.hypergraph
            ghd = guarded_ghd(hg)
            for name in hg.edge_names:
                eattrs = set(hg.edge(name))
                assert any(eattrs <= set(b) for b in ghd.bags.values())

    def test_trivial_ghd_is_degenerately_guarded(self):
        # Definition 13 with J = ∅ makes any bags-equal-edges GHD guarded
        # (HybridGuarded then degenerates to plain TIMEFIRST on Q_I = Q).
        hg = JoinQuery.line(3).hypergraph
        trivial = ghd_from_partition(hg, [["R1"], ["R2"], ["R3"]])
        assert is_guarded(trivial)

    def test_merged_bag_ghd_not_guarded(self):
        # Bags (x1x2x3) and (x3x4) have J = {x3}; Definition 13 would
        # require three nodes (x1x2x3, x2x3, x3x4) — so this GHD is not
        # guarded.
        hg = JoinQuery.line(3).hypergraph
        merged = ghd_from_partition(hg, [["R1", "R2"], ["R3"]])
        assert not is_guarded(merged)

    def test_hierarchical_star_ghd_is_guarded(self):
        # A star's hhtw GHD has one bag per edge, all sharing the center —
        # exactly the guarded shape.
        _, ghd = hhtw_ghd(JoinQuery.star(3).hypergraph)
        assert is_guarded(ghd)

    def test_hybrid_runs_on_guarded_ghd(self, rng):
        from conftest import random_database
        from repro.algorithms.hybrid import hybrid_join
        from repro.algorithms.naive import naive_join

        q = JoinQuery.line(3)
        ghd = guarded_ghd(q.hypergraph)
        db = random_database(q, rng, n=10, domain=3)
        got = hybrid_join(q, db, ghd=ghd)
        assert got.normalized() == naive_join(q, db).normalized()
