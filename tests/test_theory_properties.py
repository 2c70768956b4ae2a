"""Property tests for theoretical invariants (AGM bound, reducer, widths)."""

import random

import pytest

from repro.algorithms.naive import naive_nontemporal_join
from repro.core.hypergraph import Hypergraph
from repro.core.query import JoinQuery
from repro.nontemporal.cover import agm_bound, rho
from repro.nontemporal.generic_join import generic_join
from repro.nontemporal.hash_join import semijoin
from repro.nontemporal.yannakakis import yannakakis

from conftest import random_database, random_relation


QUERY_POOL = [
    JoinQuery.line(3),
    JoinQuery.star(3),
    JoinQuery.triangle(),
    JoinQuery.cycle(4),
    JoinQuery.bowtie(),
    JoinQuery.hier(),
]


class TestAGMBound:
    """|Q(R)| ≤ Π |R_e|^{x_e} for the optimal fractional cover [21]."""

    @pytest.mark.parametrize("qidx", range(len(QUERY_POOL)))
    @pytest.mark.parametrize("seed", range(4))
    def test_output_never_exceeds_agm(self, qidx, seed):
        query = QUERY_POOL[qidx]
        rng = random.Random(seed * 31 + qidx)
        db = random_database(query, rng, n=rng.randrange(3, 12), domain=3)
        results = generic_join(query.hypergraph, db)
        sizes = {name: len(db[name]) for name in query.edge_names}
        bound = agm_bound(query.hypergraph, sizes)
        assert len(results) <= bound + 1e-6

    def test_agm_tight_for_cartesian(self):
        hg = Hypergraph({"R1": ("a",), "R2": ("b",)})
        db = {
            "R1": random_relation("R1", ("a",), 5, 10, 10, random.Random(1)),
            "R2": random_relation("R2", ("b",), 7, 10, 10, random.Random(2)),
        }
        results = generic_join(hg, db)
        assert len(results) == 35
        assert abs(agm_bound(hg, {"R1": 5, "R2": 7}) - 35.0) < 1e-6

    def test_rho_lower_bound_realized_on_worst_case(self):
        # The classic AGM-tight triangle instance: R_i = A×B with |A| =
        # |B| = m gives N = m² per relation and m³ = N^1.5 results.
        m = 4
        rows = [((a, b), (0, 1)) for a in range(m) for b in range(m)]
        q = JoinQuery.triangle()
        from repro.core.relation import TemporalRelation

        db = {
            n: TemporalRelation(n, q.edge(n), rows, check_distinct=False)
            for n in q.edge_names
        }
        results = generic_join(q.hypergraph, db)
        assert len(results) == m**3
        assert rho(q.hypergraph) == 1.5


class TestFullReducer:
    """After the Yannakakis reducer, nothing dangles (non-temporal)."""

    @pytest.mark.parametrize("qname", ["line4", "star4", "hier"])
    @pytest.mark.parametrize("seed", range(4))
    def test_empty_output_implies_empty_reduced_relation(self, qname, seed):
        query = {
            "line4": JoinQuery.line(4),
            "star4": JoinQuery.star(4),
            "hier": JoinQuery.hier(),
        }[qname]
        rng = random.Random(seed * 977 + 5)
        db = random_database(query, rng, n=5, domain=4)
        nontemporal = naive_nontemporal_join(query, db)
        if nontemporal:
            return
        # Simulate the reducer: iterate pairwise semijoins to fixpoint;
        # some relation must become empty.
        rels = dict(db)
        changed = True
        while changed:
            changed = False
            for a in query.edge_names:
                for b in query.edge_names:
                    if a == b:
                        continue
                    reduced = semijoin(rels[a], rels[b])
                    if len(reduced) != len(rels[a]):
                        rels[a] = reduced
                        changed = True
        assert any(len(r) == 0 for r in rels.values())

    @pytest.mark.parametrize("seed", range(5))
    def test_yannakakis_no_dangling_exploration(self, seed):
        # Output-sensitivity witness: with intervals disabled, Yannakakis
        # must return exactly the non-temporal join — its enumeration
        # never visits a partial assignment that dies.
        query = JoinQuery.line(4)
        rng = random.Random(seed + 41)
        db = random_database(query, rng, n=8, domain=3)
        got = yannakakis(
            query.hypergraph, db, attr_order=query.attrs,
            intersect_intervals=False,
        )
        want = naive_nontemporal_join(query, db)
        assert sorted(got.values_only()) == sorted(want)


class TestWidthOrderings:
    """The Section 4.1 remark's orderings on acyclic queries."""

    def test_hierarchical_ordering(self):
        # hierarchical: hhtw = 1 < fhtw + 1 = 2.
        from repro.nontemporal.ghd import fhtw, hhtw

        for q in [JoinQuery.star(3), JoinQuery.hier()]:
            hg = q.hypergraph
            assert hhtw(hg) == 1.0
            assert hhtw(hg) < fhtw(hg) + 1

    def test_acyclic_non_hierarchical_ordering(self):
        # acyclic non-hierarchical: fhtw + 1 = 2 ≤ hhtw.
        from repro.nontemporal.ghd import fhtw, hhtw

        for n in (3, 4, 5):
            hg = JoinQuery.line(n).hypergraph
            assert fhtw(hg) + 1 <= hhtw(hg) + 1e-9
