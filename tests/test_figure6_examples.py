"""The three Figure 6 example joins, with their stated fhtw/hhtw values.

Figure 6 gives three queries and their widths:

1. two triangles sharing a vertex (the bowtie): fhtw = hhtw = 1.5;
2. an acyclic, non-hierarchical join (line-4): fhtw = 1, hhtw = 2;
3. two triangles joined by a bridging edge: a GHD whose triangle bags
   give fhtw = 1.5, while the minimum *hierarchical* GHD needs a merged
   4-attribute bag and has hhtw = 2.
"""

from repro.analysis.plans import verify_ghd, verify_plan
from repro.core.classification import classify
from repro.core.query import JoinQuery
from repro.nontemporal.ghd import fhtw, fhtw_ghd, hhtw, hhtw_ghd


def two_triangles_with_bridge() -> JoinQuery:
    """Figure 6's third example: triangles (x1x2x3) and (x4x5x6) linked
    by the edge (x1, x6)."""
    return JoinQuery(
        {
            "R1": ("x1", "x2"),
            "R2": ("x2", "x3"),
            "R3": ("x3", "x1"),
            "R4": ("x4", "x5"),
            "R5": ("x5", "x6"),
            "R6": ("x6", "x4"),
            "R7": ("x1", "x6"),
        }
    )


class TestFigure6:
    def test_example1_bowtie(self):
        hg = JoinQuery.bowtie().hypergraph
        assert fhtw(hg) == 1.5
        assert hhtw(hg) == 1.5
        _, ghd = hhtw_ghd(hg)
        verify_ghd(ghd)
        assert len(ghd.bags) == 2
        assert sorted(len(b) for b in ghd.bags.values()) == [3, 3]

    def test_example2_acyclic_non_hierarchical(self):
        hg = JoinQuery.line(4).hypergraph
        assert fhtw(hg) == 1.0
        assert hhtw(hg) == 2.0
        _, ghd = hhtw_ghd(hg)
        verify_ghd(ghd)
        assert ghd.is_hierarchical()

    def test_example3_bridged_triangles_fhtw(self):
        q = two_triangles_with_bridge()
        assert classify(q.hypergraph).value == "cyclic"
        assert fhtw(q.hypergraph) == 1.5
        _, ghd = fhtw_ghd(q.hypergraph)
        verify_ghd(ghd)
        # The fhtw decomposition keeps the two triangle bags.
        bag_sets = sorted(frozenset(b) for b in ghd.bags.values())
        assert frozenset({"x1", "x2", "x3"}) in bag_sets
        assert frozenset({"x4", "x5", "x6"}) in bag_sets

    def test_example3_bridged_triangles_hhtw(self):
        q = two_triangles_with_bridge()
        assert hhtw(q.hypergraph) == 2.0
        width, ghd = hhtw_ghd(q.hypergraph)
        verify_ghd(ghd)
        assert width == 2.0
        assert ghd.is_hierarchical()
        # The hierarchical GHD must merge the bridge into a triangle bag
        # (a 4-attribute bag appears).
        assert max(len(b) for b in ghd.bags.values()) >= 4

    def test_example3_all_algorithms_agree(self, rng):
        from conftest import random_database
        from repro.algorithms.naive import naive_join
        from repro.algorithms.registry import temporal_join

        q = two_triangles_with_bridge()
        for _ in range(2):
            db = random_database(q, rng, n=8, domain=3)
            want = naive_join(q, db).normalized()
            for alg in ["timefirst", "hybrid", "baseline", "joinfirst", "auto"]:
                got = temporal_join(q, db, algorithm=alg)
                assert got.normalized() == want, alg

    def test_example3_theorem12_exponent(self):
        from repro.core.planner import plan

        p = plan(two_triangles_with_bridge())
        verify_plan(p)  # static width/exponent accounting must agree
        # min(fhtw + 1, hhtw) = min(2.5, 2) = 2.
        assert p.exponent == 2.0
        assert p.algorithm == "hybrid"
