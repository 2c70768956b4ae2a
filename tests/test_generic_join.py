"""Tests for the worst-case optimal GenericJoin."""

import pytest

from repro.algorithms.naive import naive_nontemporal_join
from repro.core.hypergraph import Hypergraph
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.nontemporal.generic_join import (
    choose_attribute_order,
    generic_join,
    generic_join_with_order,
)

from conftest import random_database


def as_set(results, order, target):
    pos = [order.index(a) for a in target]
    return {tuple(r[p] for p in pos) for r in results}


class TestAttributeOrder:
    def test_covers_all_attrs(self):
        for q in [JoinQuery.line(4), JoinQuery.triangle(), JoinQuery.bowtie()]:
            order = choose_attribute_order(q.hypergraph)
            assert sorted(order) == sorted(q.hypergraph.attrs)

    def test_connected_prefixes(self):
        hg = JoinQuery.line(5).hypergraph
        order = choose_attribute_order(hg)
        seen = {order[0]}
        for attr in order[1:]:
            adjacent = any(
                seen & set(hg.edge(e)) for e in hg.edges_of(attr)
            )
            assert adjacent
            seen.add(attr)


class TestGenericJoin:
    def test_triangle_finds_triangles(self):
        edges = [((1, 2), (0, 1)), ((2, 3), (0, 1)), ((3, 1), (0, 1)), ((1, 4), (0, 1))]
        q = JoinQuery.triangle()
        db = {
            n: TemporalRelation(n, q.edge(n), edges, check_distinct=False)
            for n in q.edge_names
        }
        results, order = generic_join_with_order(q.hypergraph, db)
        got = as_set(results, order, ("x1", "x2", "x3"))
        assert (1, 2, 3) in got
        assert (2, 3, 1) in got  # rotations are distinct assignments
        assert (1, 4, 3) not in got

    def test_empty_relation_short_circuits(self):
        q = JoinQuery.line(2)
        db = {
            "R1": TemporalRelation("R1", ("x1", "x2"), [((1, 2), (0, 1))]),
            "R2": TemporalRelation("R2", ("x2", "x3")),
        }
        assert generic_join(q.hypergraph, db) == []

    def test_explicit_order_respected(self):
        q = JoinQuery.line(2)
        db = {
            "R1": TemporalRelation("R1", ("x1", "x2"), [((1, 2), (0, 1))]),
            "R2": TemporalRelation("R2", ("x2", "x3"), [((2, 3), (0, 1))]),
        }
        results, order = generic_join_with_order(
            q.hypergraph, db, order=("x3", "x2", "x1")
        )
        assert order == ["x3", "x2", "x1"]
        assert results == [(3, 2, 1)]

    def test_cartesian_product(self):
        hg = Hypergraph({"R1": ("a",), "R2": ("b",)})
        db = {
            "R1": TemporalRelation("R1", ("a",), [((1,), (0, 1)), ((2,), (0, 1))]),
            "R2": TemporalRelation("R2", ("b",), [((9,), (0, 1))]),
        }
        results, order = generic_join_with_order(hg, db)
        assert as_set(results, order, ("a", "b")) == {(1, 9), (2, 9)}

    def test_relation_attr_order_independence(self):
        # Binding a relation whose stored column order differs from the
        # hyperedge declaration must still work (positions by name).
        hg = Hypergraph({"R1": ("a", "b"), "R2": ("b", "c")})
        db = {
            "R1": TemporalRelation("R1", ("b", "a"), [((2, 1), (0, 1))]),
            "R2": TemporalRelation("R2", ("b", "c"), [((2, 3), (0, 1))]),
        }
        results, order = generic_join_with_order(hg, db)
        assert as_set(results, order, ("a", "b", "c")) == {(1, 2, 3)}

    @pytest.mark.parametrize(
        "query",
        [
            JoinQuery.line(3),
            JoinQuery.star(3),
            JoinQuery.triangle(),
            JoinQuery.cycle(4),
            JoinQuery.bowtie(),
            JoinQuery.hier(),
        ],
    )
    def test_randomized_against_backtracking(self, query, rng):
        for _ in range(4):
            db = random_database(query, rng, n=10, domain=3)
            results, order = generic_join_with_order(query.hypergraph, db)
            got = as_set(results, order, query.attrs)
            want = set(naive_nontemporal_join(query, db))
            assert got == want

    def test_no_duplicates(self, rng):
        query = JoinQuery.cycle(4)
        db = random_database(query, rng, n=12, domain=3)
        results = generic_join(query.hypergraph, db)
        assert len(results) == len(set(results))
