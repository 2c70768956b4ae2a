"""Counter-exactness tests for explain_analyze and stats threading.

A hand-checked two-relation instance pins exact values for the
load-bearing counters of every registered algorithm:

    R(a, b): (a1, b1, [0, 10]), (a2, b1, [5, 15]), (a3, b2, [0, 3])
    S(b, c): (b1, c1, [2, 12]), (b2, c2, [20, 30])

N = 5 tuples. The join R ⋈ S has exactly two results:
(a1, b1, c1, [2, 10]) and (a2, b1, c1, [5, 12]) — (a3, b2) matches
(b2, c2) on value but the intervals [0, 3] and [20, 30] are disjoint.
"""

import pytest

from repro import ExecutionStats, explain_analyze, temporal_join
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation

N = 5  # total input tuples
K = 2  # join results


@pytest.fixture()
def instance():
    query = JoinQuery({"R": ("a", "b"), "S": ("b", "c")})
    db = {
        "R": TemporalRelation(
            "R", ("a", "b"),
            [(("a1", "b1"), (0, 10)), (("a2", "b1"), (5, 15)),
             (("a3", "b2"), (0, 3))],
        ),
        "S": TemporalRelation(
            "S", ("b", "c"),
            [(("b1", "c1"), (2, 12)), (("b2", "c2"), (20, 30))],
        ),
    }
    return query, db


def run(instance, algorithm):
    query, db = instance
    report = explain_analyze(query, db, algorithm=algorithm)
    assert report.algorithm == algorithm
    assert len(report.result) == K
    assert report.stats["results"] == K
    assert report.input_size == N
    assert report.seconds >= 0
    return report.stats


class TestCounterExactness:
    def test_timefirst(self, instance):
        stats = run(instance, "timefirst")
        # The kernel route's semijoin pass drops (a3,b2) and (b2,c2):
        # the only rows with b2 never meet.
        assert stats["kernel.semijoin_dropped"] == 2
        kept = N - 2
        # One event per endpoint of every kept interval.
        assert stats["sweep.events"] == 2 * kept
        assert stats["sweep.inserts"] == kept
        # ENUMERATE fires once per expiring tuple (Algorithm 1, line 6).
        assert stats["sweep.enumerate_calls"] == kept
        # At t=5: (a1,b1), (a2,b1), (b1,c1) are simultaneously active.
        assert stats["sweep.active_peak"] == 3
        assert stats["hier.inserts"] == kept
        assert stats["hier.deletes"] == kept

    def test_timefirst_cm(self, instance):
        stats = run(instance, "timefirst-cm")
        assert stats["sweep.events"] == 2 * N
        assert stats["sweep.active_peak"] == 3
        assert stats["cm.heap_pushes"] == N
        assert stats["cm.heap_removes"] == N

    def test_hybrid(self, instance):
        stats = run(instance, "hybrid")
        # Sweep runs over the materialized bags; this query's GHD has
        # one bag per relation. The b2 rows' partial hulls ([0, 3] in R,
        # [20, 30] in S) miss the other bag's interval, so both drop.
        assert stats["hybrid.bags"] >= 1
        assert stats["hybrid.hull_dropped"] == 2
        assert stats["hybrid.bag_rows.total"] == N - 2
        assert stats["sweep.events"] == 2 * (N - 2)

    def test_hybrid_interval(self, instance):
        stats = run(instance, "hybrid-interval")
        # Core join over J = {b}: b1 and b2 both survive the value join.
        assert stats["hi.core_tuples"] == 2
        # b2's residual hulls, R's [0, 3] and S's [20, 30], share no
        # point: it dies in the core join.
        assert stats["hi.hull_pruned"] == 1
        assert stats["hi.core_pruned"] == 1
        # b1 resolves through the two-group interval join.
        assert stats["hi.interval_joins"] == 1
        # b1 scans 2 R-rows + 1 S-row (the core interval is always() for
        # a coreless J, so no row is filtered out).
        assert stats["ij.scan.total"] == 3
        assert stats["ij.pairs.total"] == K

    def test_baseline(self, instance):
        stats = run(instance, "baseline")
        # Two relations: exactly one binary join, materializing K rows.
        assert stats["bin.joins"] == 1
        assert stats["bin.intermediate_rows.total"] == K
        assert stats["bin.intermediate_rows.max"] == K

    def test_joinfirst(self, instance):
        stats = run(instance, "joinfirst")
        # Value-only matches: 2 on b1 + 1 on b2.
        assert stats["jf.matches"] == 3
        # The b2 match dies on the interval filter.
        assert stats["jf.survivors"] == K

    def test_naive(self, instance):
        stats = run(instance, "naive")
        # 3 R-tuples at depth 0, then 2 S-tuples for each of the 3
        # partial bindings that survive to depth 1.
        assert stats["naive.candidates"] == 3 + 3 * 2


class TestExplainAnalyzeApi:
    def test_auto_runs_planner_choice(self, instance):
        query, db = instance
        report = explain_analyze(query, db)
        assert report.algorithm in ("timefirst", "hybrid", "hybrid-interval")
        assert len(report.result) == K
        assert "algorithm" in report.plan_explanation

    def test_render_contains_plan_and_counters(self, instance):
        query, db = instance
        report = explain_analyze(query, db, algorithm="timefirst")
        text = report.render()
        assert "-- plan" in text
        assert "-- execution" in text
        assert "-- counters" in text
        assert "sweep.events" in text
        assert "wall time" in text

    def test_forced_algorithm_noted_when_differs(self, instance):
        query, db = instance
        report = explain_analyze(query, db, algorithm="baseline")
        assert "forced" in report.plan_explanation

    def test_caller_supplied_stats_accumulates(self, instance):
        query, db = instance
        stats = ExecutionStats()
        explain_analyze(query, db, algorithm="timefirst", stats=stats)
        explain_analyze(query, db, algorithm="timefirst", stats=stats)
        # Two reads of the N - 2 rows the semijoin pass keeps.
        assert stats["sweep.events"] == 4 * (N - 2)

    def test_timers_recorded(self, instance):
        query, db = instance
        report = explain_analyze(query, db, algorithm="timefirst")
        assert "phase.sweep" in report.stats.timers


class TestStatsThreading:
    """temporal_join(..., stats=...) fills counters; stats=None (the
    default) must leave the algorithms' uninstrumented path in use."""

    @pytest.mark.parametrize(
        "algorithm",
        ["timefirst", "timefirst-cm", "hybrid", "hybrid-interval",
         "baseline", "joinfirst", "naive"],
    )
    def test_every_algorithm_fills_stats(self, instance, algorithm):
        query, db = instance
        stats = ExecutionStats()
        out = temporal_join(query, db, algorithm=algorithm, stats=stats)
        assert len(out) == K
        assert stats["results"] == K
        assert stats.counters  # something beyond results was recorded

    @pytest.mark.parametrize(
        "algorithm",
        ["timefirst", "timefirst-cm", "hybrid", "hybrid-interval",
         "baseline", "joinfirst", "naive"],
    )
    def test_stats_do_not_change_results(self, instance, algorithm):
        query, db = instance
        plain = temporal_join(query, db, algorithm=algorithm)
        traced = temporal_join(
            query, db, algorithm=algorithm, stats=ExecutionStats()
        )
        assert plain.normalized() == traced.normalized()

    def test_results_never_double_counted(self, instance):
        # HYBRID delegates emission to the sweep; HYBRID-INTERVAL's
        # recursive TIMEFIRST residuals run without stats. Either way
        # `results` must equal K exactly, not a multiple of it.
        query, db = instance
        for algorithm in ("hybrid", "hybrid-interval"):
            stats = ExecutionStats()
            temporal_join(query, db, algorithm=algorithm, stats=stats)
            assert stats["results"] == K
