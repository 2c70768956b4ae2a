"""Tests for the cost-based advisor (the paper's §6.3 future work)."""

import pytest

from repro.core.advisor import advise
from repro.core.interval import Interval
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.workloads.synthetic import SyntheticConfig, generate

from conftest import random_database


class TestMechanics:
    def test_ranking_is_sorted(self, rng):
        q = JoinQuery.line(3)
        db = random_database(q, rng, n=12, domain=3)
        advice = advise(q, db)
        costs = [c.cost for c in advice.ranked]
        assert costs == sorted(costs)

    def test_all_applicable_algorithms_ranked(self, rng):
        q = JoinQuery.line(3)
        db = random_database(q, rng, n=12, domain=3)
        names = {c.algorithm for c in advise(q, db).ranked}
        assert names == {"baseline", "timefirst", "hybrid", "hybrid-interval", "joinfirst"}

    def test_unguarded_query_omits_hybrid_interval(self, rng):
        q = JoinQuery.triangle()
        db = random_database(q, rng, n=10, domain=3)
        names = {c.algorithm for c in advise(q, db).ranked}
        assert "hybrid-interval" not in names

    def test_deterministic(self, rng):
        q = JoinQuery.star(3)
        db = random_database(q, rng, n=12, domain=3)
        a = advise(q, db, seed=5)
        b = advise(q, db, seed=5)
        assert [c.algorithm for c in a.ranked] == [c.algorithm for c in b.ranked]

    def test_explain_renders(self, rng):
        q = JoinQuery.line(3)
        db = random_database(q, rng, n=10, domain=3)
        text = advise(q, db).explain()
        assert "ranking" in text and "estimated output" in text

    def test_selectivities_in_unit_interval(self, rng):
        q = JoinQuery.line(4)
        db = random_database(q, rng, n=12, domain=3)
        advice = advise(q, db)
        assert all(0.0 <= s <= 1.0 for s in advice.temporal_selectivities.values())


class TestRegimes:
    """The Section 6.3 summary regimes, as ground-truth checks."""

    def test_dangling_heavy_star_prefers_the_toolkit(self):
        q = JoinQuery.star(4)
        db = generate(q, SyntheticConfig(n_dangling=200, n_results=40, seed=2))
        advice = advise(q, db)
        assert advice.best in ("timefirst", "hybrid-interval")

    def test_joinfirst_wins_tiny_nontemporal_output(self):
        # Distinct join values everywhere: the non-temporal result is
        # tiny, so enumerating it first is the cheapest plan.
        q = JoinQuery.line(3)
        db = {}
        for i, name in enumerate(q.edge_names):
            rows = [
                ((f"v{j}", f"w{j}"), Interval(j, j + 5)) for j in range(60)
            ]
            db[name] = TemporalRelation(name, q.edge(name), rows)
        advice = advise(q, db)
        by_name = {c.algorithm: c.cost for c in advice.ranked}
        # The sweep pays per input tuple; joinfirst only pays per match.
        assert by_name["joinfirst"] < by_name["timefirst"]

    def test_temporal_selectivity_detected(self):
        # Value matches everywhere, zero temporal overlap: the advisor's
        # sampled selectivity must be ~0 and the output estimate tiny.
        q = JoinQuery.line(2)
        left = [((f"a{i}", "hub"), Interval(2 * i, 2 * i + 1)) for i in range(50)]
        right = [
            (("hub", f"b{i}"), Interval(10_000 + i, 10_001 + i)) for i in range(50)
        ]
        db = {
            "R1": TemporalRelation("R1", ("x1", "x2"), left),
            "R2": TemporalRelation("R2", ("x2", "x3"), right),
        }
        advice = advise(q, db)
        assert advice.temporal_selectivities[("R1", "R2")] == 0.0
        assert advice.estimated_output < 10

    def test_advice_best_is_actually_competitive(self, rng):
        """End-to-end: the advisor's pick is within 4x of the true best.

        Each candidate is timed as the minimum of 3 runs, so one slow
        sample on a loaded host does not decide the comparison.
        """
        import time

        from repro.algorithms.registry import get_algorithm

        q = JoinQuery.star(3)
        db = generate(q, SyntheticConfig(n_dangling=120, n_results=30, seed=4))
        advice = advise(q, db)
        timings = {}
        for cand in advice.ranked:
            fn = get_algorithm(cand.algorithm)
            samples = []
            for _ in range(3):
                start = time.perf_counter()
                fn(q, db)
                samples.append(time.perf_counter() - start)
            timings[cand.algorithm] = min(samples)
        best_actual = min(timings.values())
        assert timings[advice.best] <= max(4 * best_actual, best_actual + 0.05)
