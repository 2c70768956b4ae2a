"""Tests for the §5 hardness constructions."""

import random

import pytest

from repro.algorithms.hardness import (
    counterpart_instance,
    nontemporal_counterpart,
    triangle_listing_instance,
    triangles_from_line3_results,
)
from repro.algorithms.naive import naive_nontemporal_join
from repro.algorithms.registry import temporal_join
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.core.errors import QueryError


def brute_triangles(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    out = set()
    for u, v in edges:
        for w in adj[u] & adj[v]:
            out.add(frozenset((u, v, w)))
    return out


class TestTriangleReduction:
    def test_instance_shape(self):
        db = triangle_listing_instance([(1, 2), (2, 3), (1, 3)])
        assert len(db["R1"]) == 6 and len(db["R2"]) == 6 and len(db["R3"]) == 6

    def test_duplicate_edges_ignored(self):
        db = triangle_listing_instance([(1, 2), (2, 1)])
        assert len(db["R2"]) == 2

    def test_single_triangle_recovered(self):
        edges = [(1, 2), (2, 3), (1, 3)]
        db = triangle_listing_instance(edges)
        results = temporal_join(JoinQuery.line(3), db, algorithm="timefirst")
        assert triangles_from_line3_results(results) == {frozenset((1, 2, 3))}

    def test_triangle_free_graph_gives_none(self):
        edges = [(1, 2), (2, 3), (3, 4)]
        db = triangle_listing_instance(edges)
        results = temporal_join(JoinQuery.line(3), db, algorithm="timefirst")
        assert triangles_from_line3_results(results) == set()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_one_to_one(self, seed):
        rng = random.Random(seed)
        vertices = list(range(1, 13))
        edges = set()
        while len(edges) < 22:
            u, v = rng.sample(vertices, 2)
            edges.add((min(u, v), max(u, v)))
        db = triangle_listing_instance(sorted(edges))
        results = temporal_join(JoinQuery.line(3), db, algorithm="auto")
        assert triangles_from_line3_results(results) == brute_triangles(edges)

    def test_results_per_triangle_is_six(self):
        # The proof lists six join results per triangle.
        edges = [(1, 2), (2, 3), (1, 3)]
        db = triangle_listing_instance(edges)
        results = temporal_join(JoinQuery.line(3), db)
        assert len(results) == 6


class TestNonTemporalCounterpart:
    def test_query_shape(self):
        q = JoinQuery.line(3)
        qs = nontemporal_counterpart(q, ["R1", "R3"])
        assert qs.edge("R1") == ("x1", "x2", "__t__")
        assert qs.edge("R2") == ("x2", "x3")
        assert qs.edge("R3") == ("x3", "x4", "__t__")

    def test_counterpart_of_line3_is_triangleish(self):
        # With S = {R1, R3} the counterpart contains a triangle pattern on
        # (x2-ish, x3-ish, __t__): it must be cyclic.
        qs = nontemporal_counterpart(JoinQuery.line(3), ["R1", "R3"])
        assert not qs.is_acyclic

    def test_instance_translation_equivalence(self):
        q = JoinQuery.line(3)
        db = triangle_listing_instance([(1, 2), (2, 3), (1, 3), (3, 4)])
        temporal = temporal_join(q, db)
        qs = nontemporal_counterpart(q, ["R1", "R3"])
        translated = counterpart_instance(q, db, ["R1", "R3"])
        nontemporal = naive_nontemporal_join(qs, translated)
        got = {values[:-1] for values in nontemporal}
        want = set(temporal.values_only())
        assert got == want

    def test_translation_requires_instants(self):
        q = JoinQuery.line(2)
        db = {
            "R1": TemporalRelation("R1", ("x1", "x2"), [((1, 2), (0, 5))]),
            "R2": TemporalRelation("R2", ("x2", "x3"), [((2, 3), (0, 5))]),
        }
        with pytest.raises(QueryError):
            counterpart_instance(q, db, ["R1"])
