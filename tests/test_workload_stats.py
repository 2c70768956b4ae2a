"""Tests for the workload characterization module."""

from repro.core.interval import Interval
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.workloads.stats import (
    pair_stats,
    relation_stats,
    workload_stats,
)
from repro.workloads.synthetic import SyntheticConfig, generate


def rel(name, attrs, rows):
    return TemporalRelation(name, attrs, rows)


class TestRelationStats:
    def test_basic_numbers(self):
        r = rel("R", ("a", "b"), [((1, 2), (0, 10)), ((1, 3), (5, 7))])
        s = relation_stats(r)
        assert s.rows == 2
        assert s.min_duration == 2
        assert s.max_duration == 10
        assert s.median_duration == 6
        assert s.time_span == (0, 10)
        assert s.max_key_multiplicity["a"] == 2
        assert s.max_key_multiplicity["b"] == 1

    def test_empty_relation(self):
        s = relation_stats(rel("R", ("a",), []))
        assert s.rows == 0 and s.time_span == (0, 0)


class TestPairStats:
    def test_exact_counts(self):
        left = rel("L", ("a", "b"), [((1, 0), (0, 10)), ((2, 0), (0, 1))])
        right = rel("R", ("b", "c"), [((0, "x"), (5, 20)), ((0, "y"), (50, 60))])
        s = pair_stats(left, right)
        assert s.on == ("b",)
        assert s.value_join_size == 4
        assert s.temporal_join_size == 1  # only (1,0)×(0,x) overlaps
        assert s.temporal_selectivity == 0.25

    def test_no_matches(self):
        left = rel("L", ("a", "b"), [((1, 0), (0, 10))])
        right = rel("R", ("b", "c"), [((9, "x"), (0, 10))])
        s = pair_stats(left, right)
        assert s.value_join_size == 0
        assert s.temporal_selectivity == 0.0

    def test_overlap_count_matches_brute_force(self, rng):
        left_rows = {}
        right_rows = {}
        for i in range(30):
            lo = rng.randrange(40)
            left_rows[(i, 0)] = Interval(lo, lo + rng.randrange(12))
            lo = rng.randrange(40)
            right_rows[(0, i)] = Interval(lo, lo + rng.randrange(12))
        left = rel("L", ("a", "b"), list(left_rows.items()))
        right = rel("R", ("b", "c"), list(right_rows.items()))
        s = pair_stats(left, right)
        brute = sum(
            1
            for (_, k1), iv1 in left_rows.items()
            for (k2, _), iv2 in right_rows.items()
            if k1 == k2 and iv1.intersects(iv2)
        )
        assert s.temporal_join_size == brute


class TestWorkloadStats:
    def test_synthetic_blowup_detected(self):
        q = JoinQuery.star(4)
        db = generate(q, SyntheticConfig(n_dangling=80, n_results=20, seed=5))
        stats = workload_stats(q, db)
        # The dangling mass makes some pairwise temporal join much larger
        # than the input — the whole point of the generator.
        assert stats.blowup_factor() > 3.0

    def test_report_renders(self, rng):
        from conftest import random_database

        q = JoinQuery.line(3)
        db = random_database(q, rng, n=8, domain=3)
        text = workload_stats(q, db).report()
        assert "input size" in text
        assert "blow-up factor" in text
        assert "R1 ⋈ R2" in text

    def test_disconnected_pairs_skipped(self, rng):
        from conftest import random_database

        q = JoinQuery({"R1": ("a", "b"), "R2": ("c", "d")})
        db = random_database(q, rng, n=6, domain=3)
        stats = workload_stats(q, db)
        assert stats.pairs == []
        assert stats.blowup_factor() == 0.0
