"""Tests for the measurement harness and reporting."""

import math

from repro.bench.harness import (
    Measurement,
    compare_algorithms,
    measure,
    measure_scaling,
    scaling_exponent,
)
from repro.bench.reporting import (
    format_bytes,
    format_seconds,
    render_ratio_table,
    render_scaling_table,
    render_series,
    render_stats_table,
    render_table,
)
from repro.obs import ExecutionStats
from repro.core.query import JoinQuery

from conftest import random_database


class TestMeasure:
    def test_measure_fields(self, rng):
        q = JoinQuery.line(2)
        db = random_database(q, rng, n=10, domain=3)
        m = measure("timefirst", q, db)
        assert m.algorithm == "timefirst"
        assert m.seconds > 0
        assert m.peak_bytes > 0
        assert m.result_count >= 0
        assert m.input_size == q.input_size(db)
        assert m.ok

    def test_memory_can_be_skipped(self, rng):
        q = JoinQuery.line(2)
        db = random_database(q, rng, n=8, domain=3)
        m = measure("timefirst", q, db, measure_memory=False)
        assert m.peak_bytes == 0

    def test_throughput(self):
        m = Measurement("x", seconds=2.0, peak_bytes=0, result_count=10,
                        input_size=5, tau=0)
        assert m.throughput == 5.0

    def test_throughput_zero_results_zero_seconds_is_zero(self):
        # A zero-result cell measured at 0 s used to report inf results/s.
        m = Measurement("x", seconds=0.0, peak_bytes=0, result_count=0,
                        input_size=5, tau=0)
        assert m.throughput == 0.0

    def test_throughput_zero_results_positive_seconds_is_zero(self):
        m = Measurement("x", seconds=1.5, peak_bytes=0, result_count=0,
                        input_size=5, tau=0)
        assert m.throughput == 0.0

    def test_throughput_positive_results_zero_seconds_stays_inf(self):
        m = Measurement("x", seconds=0.0, peak_bytes=0, result_count=3,
                        input_size=5, tau=0)
        assert m.throughput == float("inf")

    def test_shared_kwargs_stripped_per_algorithm(self, rng):
        # One common kwargs dict aimed at algorithms with differing
        # signatures: baseline accepts order=, timefirst does not;
        # workers= is a dispatch-level kwarg every algorithm tolerates.
        q = JoinQuery.line(3)
        db = random_database(q, rng, n=10, domain=3)
        common = dict(
            workers=2, parallel_mode="inline", order=("R3", "R2", "R1")
        )
        counts = set()
        for name in ("timefirst", "baseline", "joinfirst"):
            m = measure(name, q, db, measure_memory=False, **common)
            assert m.ok
            assert m.workers == 2
            counts.add(m.result_count)
        assert len(counts) == 1

    def test_measure_with_workers_collects_parallel_stats(self, rng):
        q = JoinQuery.line(2)
        db = random_database(q, rng, n=12, domain=3)
        m = measure(
            "timefirst", q, db, measure_memory=False, collect_stats=True,
            workers=2, parallel_mode="inline",
        )
        assert m.stats is not None
        assert m.stats.get("parallel.shards", 0) >= 1

    def test_stats_off_by_default(self, rng):
        q = JoinQuery.line(2)
        db = random_database(q, rng, n=8, domain=3)
        m = measure("timefirst", q, db, measure_memory=False)
        assert m.stats is None

    def test_collect_stats(self, rng):
        q = JoinQuery.line(2)
        db = random_database(q, rng, n=8, domain=3)
        m = measure(
            "timefirst", q, db, measure_memory=False, collect_stats=True
        )
        assert m.stats is not None
        assert m.stats["results"] == m.result_count
        # The kernel sweep skips the rows its semijoin pass drops.
        dropped = m.stats["kernel.semijoin_dropped"]
        assert m.stats["sweep.events"] == 2 * (m.input_size - dropped)


class TestCompare:
    def test_cross_validation_passes(self, rng):
        q = JoinQuery.line(3)
        db = random_database(q, rng, n=10, domain=3)
        ms = compare_algorithms(
            ["timefirst", "baseline", "hybrid-interval"], q, db,
            measure_memory=False,
        )
        assert all(m.ok for m in ms)
        assert len({m.result_count for m in ms}) == 1

    def test_inapplicable_algorithm_reported_not_raised(self, rng):
        q = JoinQuery.triangle()
        db = random_database(q, rng, n=8, domain=3)
        ms = compare_algorithms(
            ["hybrid", "hybrid-interval"], q, db, measure_memory=False
        )
        by_name = {m.algorithm: m for m in ms}
        assert by_name["hybrid"].ok
        assert not by_name["hybrid-interval"].ok
        assert "guarded" in by_name["hybrid-interval"].note


class TestCompareSharedKwargs:
    def test_common_workers_dict_across_signatures(self, rng):
        q = JoinQuery.line(3)
        db = random_database(q, rng, n=10, domain=3)
        ms = compare_algorithms(
            ["timefirst", "baseline", "joinfirst"], q, db,
            measure_memory=False, workers=2, parallel_mode="inline",
        )
        assert all(m.ok for m in ms)
        assert len({m.result_count for m in ms}) == 1
        assert all(m.workers == 2 for m in ms)


class TestMeasureScaling:
    def test_scaling_cells_agree_and_carry_workers(self, rng):
        q = JoinQuery.line(3)
        db = random_database(q, rng, n=12, domain=3)
        ms = measure_scaling(
            "timefirst", q, db, workers_list=(1, 2, 3),
            parallel_mode="inline",
        )
        assert [m.workers for m in ms] == [1, 2, 3]
        assert all(m.ok for m in ms)
        assert len({m.result_count for m in ms}) == 1

    def test_render_scaling_table(self, rng):
        q = JoinQuery.line(2)
        db = random_database(q, rng, n=10, domain=3)
        ms = measure_scaling(
            "timefirst", q, db, workers_list=(1, 2), parallel_mode="inline"
        )
        text = render_scaling_table("Scaling", {"timefirst": ms})
        assert "workers=1" in text and "workers=2" in text
        assert "×1.00" in text  # the serial anchor's own speedup

    def test_render_scaling_table_flags_mismatch(self):
        a = Measurement("x", 0.2, 0, 5, 50, 0, workers=1)
        b = Measurement("x", 0.1, 0, 5, 50, 0, workers=2, ok=False,
                        note="RESULT MISMATCH vs workers=1")
        text = render_scaling_table("Scaling", {"x": [a, b]})
        assert "MISMATCH" in text


class TestScalingExponent:
    def test_linear(self):
        sizes = [100, 200, 400, 800]
        times = [0.1 * s for s in sizes]
        assert math.isclose(scaling_exponent(sizes, times), 1.0, abs_tol=1e-6)

    def test_quadratic(self):
        sizes = [100, 200, 400]
        times = [1e-6 * s * s for s in sizes]
        assert math.isclose(scaling_exponent(sizes, times), 2.0, abs_tol=1e-6)


class TestReporting:
    def test_format_bytes(self):
        assert format_bytes(512) == "512.0B"
        assert format_bytes(2048) == "2.0KiB"
        assert format_bytes(3 * 1024 * 1024) == "3.0MiB"

    def test_format_seconds(self):
        assert format_seconds(0.5e-4).endswith("µs")
        assert format_seconds(0.05).endswith("ms")
        assert format_seconds(2.5) == "2.50s"
        assert format_seconds(float("nan")) == "n/a"

    def _measurements(self):
        a = Measurement("timefirst", 0.1, 1000, 5, 50, 0)
        b = Measurement("baseline", 0.2, 4000, 5, 50, 0)
        return {0: [a, b], 100: [a, b]}

    def test_render_table(self):
        text = render_table("Fig", self._measurements(), metric="seconds", x_label="tau")
        assert "timefirst" in text and "baseline" in text
        assert "100" in text

    def test_render_table_memory(self):
        text = render_table("Fig", self._measurements(), metric="memory")
        assert "KiB" in text

    def test_render_ratio_table(self):
        text = render_ratio_table("Fig10", self._measurements(), x_label="tau")
        assert "0.50" in text  # timefirst/baseline = 0.5
        assert "baseline" not in text.splitlines()[3]

    def test_render_series(self):
        text = render_series("Fig1", [0, 1], {"path2": [10.0, 5.0]}, x_label="tau")
        assert "path2" in text and "10" in text

    def test_render_stats_table(self):
        a = Measurement("timefirst", 0.1, 0, 5, 50, 0)
        a.stats = ExecutionStats()
        a.stats.incr("sweep.events", 100)
        b = Measurement("baseline", 0.2, 0, 5, 50, 0)  # no stats collected
        text = render_stats_table("Counters", {0: [a, b]}, x_label="tau")
        assert "sweep.events" in text
        assert "100" in text
        assert "timefirst" in text and "baseline" in text

    def test_render_stats_table_column_filter(self):
        a = Measurement("timefirst", 0.1, 0, 5, 50, 0)
        a.stats = ExecutionStats()
        a.stats.incr("sweep.events", 100)
        a.stats.incr("results", 5)
        text = render_stats_table("Counters", {0: [a]}, counters=["results"])
        assert "results" in text
        assert "sweep.events" not in text
