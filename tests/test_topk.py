"""Tests for top-k durable joins and the durability histogram."""

from repro.algorithms.naive import naive_join
from repro.algorithms.topk import durability_histogram, top_k_durable
from repro.core.interval import Interval
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.workloads.synthetic import SyntheticConfig, generate

from conftest import random_database


def brute_topk(query, db, k):
    ranked = sorted(
        naive_join(query, db).rows,
        key=lambda row: (-row[1].duration, row[0], row[1].lo),
    )
    if len(ranked) <= k:
        return ranked
    cutoff = ranked[k - 1][1].duration
    return [r for r in ranked if r[1].duration >= cutoff]


class TestTopK:
    def test_k_zero(self, rng):
        q = JoinQuery.line(2)
        db = random_database(q, rng)
        assert len(top_k_durable(q, db, 0)) == 0

    def test_small_k_matches_brute_force(self, rng):
        q = JoinQuery.line(3)
        for _ in range(4):
            db = random_database(q, rng, n=12, domain=3)
            for k in (1, 3, 7):
                got = top_k_durable(q, db, k)
                want = brute_topk(q, db, k)
                assert sorted(got.rows) == sorted(want)

    def test_k_larger_than_result_set(self, rng):
        q = JoinQuery.line(3)
        db = random_database(q, rng, n=8, domain=3)
        everything = naive_join(q, db)
        got = top_k_durable(q, db, 10_000)
        assert got.normalized() == everything.normalized()

    def test_ties_included_by_default(self):
        q = JoinQuery.star(2)
        db = {
            "R1": TemporalRelation(
                "R1", ("x1", "y"),
                [((i, "h"), (0, 10)) for i in range(3)],
            ),
            "R2": TemporalRelation("R2", ("x2", "y"), [((9, "h"), (0, 10))]),
        }
        got = top_k_durable(q, db, 1)
        assert len(got) == 3  # all share durability 10

    def test_break_ties_cuts_exactly(self):
        q = JoinQuery.star(2)
        db = {
            "R1": TemporalRelation(
                "R1", ("x1", "y"),
                [((i, "h"), (0, 10)) for i in range(3)],
            ),
            "R2": TemporalRelation("R2", ("x2", "y"), [((9, "h"), (0, 10))]),
        }
        got = top_k_durable(q, db, 1, break_ties=True)
        assert len(got) == 1

    def test_all_instant_inputs(self):
        q = JoinQuery.line(2)
        db = {
            "R1": TemporalRelation("R1", ("x1", "x2"), [((1, 2), (5, 5))]),
            "R2": TemporalRelation("R2", ("x2", "x3"), [((2, 3), (5, 5))]),
        }
        got = top_k_durable(q, db, 1)
        assert got.rows == [((1, 2, 3), Interval(5, 5))]

    def test_ordering_most_durable_first(self, rng):
        q = JoinQuery.line(3)
        db = random_database(q, rng, n=14, domain=3)
        got = top_k_durable(q, db, 5)
        durations = [iv.duration for _, iv in got]
        assert durations == sorted(durations, reverse=True)

    def test_probing_on_synthetic_backbone(self):
        q = JoinQuery.star(3)
        cfg = SyntheticConfig(n_dangling=60, n_results=30, seed=6)
        db = generate(q, cfg)
        got = top_k_durable(q, db, 5)
        # The backbone's top durabilities decay deterministically; the
        # top-5 must be the 5 longest backbone durations.
        from repro.workloads.synthetic import backbone_durations

        top = sorted(backbone_durations(cfg), reverse=True)[:5]
        measured = sorted((iv.duration for _, iv in got), reverse=True)[:5]
        assert measured == top


class TestHistogram:
    def test_matches_per_threshold_joins(self, rng):
        q = JoinQuery.line(3)
        db = random_database(q, rng, n=12, domain=3)
        thresholds = [0, 2, 5, 9]
        hist = durability_histogram(q, db, thresholds)
        for tau in thresholds:
            assert hist[tau] == len(naive_join(q, db, tau=tau))

    def test_nonzero_base_threshold(self, rng):
        q = JoinQuery.line(3)
        db = random_database(q, rng, n=12, domain=3)
        hist = durability_histogram(q, db, [3, 6])
        assert hist[3] == len(naive_join(q, db, tau=3))
        assert hist[6] == len(naive_join(q, db, tau=6))
