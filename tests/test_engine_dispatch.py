"""Engine-selection regression tests: one decision, reported truthfully.

Satellite suite for two dispatch bugs:

* an explicit ``engine="kernel"`` request could silently degrade to the
  object path (non-kernel algorithm, algorithm kwargs, patched registry
  entry) with no trace — each cause must now record a
  ``kernel.fallback_reason`` note and surface in ``ExplainAnalyze``;
* ``explain_analyze``'s reported ``engine`` under ``algorithm="auto"``
  could disagree with the engine that actually ran — the report must be
  computed from the *post-fallback* algorithm, pinned here against the
  presence/absence of the kernel's own counters.
"""

import pytest

from repro.algorithms import registry
from repro.algorithms.registry import (
    _engine_decision,
    explain_analyze,
    temporal_join,
)
from repro.core.errors import QueryError
from repro.core.query import JoinQuery
from repro.obs import ExecutionStats
from repro.workloads.synthetic import SyntheticConfig, generate


@pytest.fixture
def line3():
    query = JoinQuery.line(3)
    db = generate(query, SyntheticConfig(n_dangling=25, n_results=8))
    return query, db


@pytest.fixture
def star3():
    query = JoinQuery.star(3)
    db = generate(query, SyntheticConfig(n_dangling=25, n_results=8))
    return query, db


class TestEngineDecision:
    def test_object_request_short_circuits(self):
        assert _engine_decision("timefirst", "object", {}) == ("object", None)

    def test_kernel_on_stock_timefirst(self):
        registry._ensure_loaded()
        assert _engine_decision("timefirst", "kernel", {}) == ("kernel", None)
        assert _engine_decision("timefirst", "auto", {}) == ("kernel", None)

    def test_no_fast_path_reason_only_when_explicit(self):
        used, reason = _engine_decision("baseline", "kernel", {})
        assert used == "object"
        assert "no kernel fast path" in reason
        assert _engine_decision("baseline", "auto", {}) == ("object", None)

    def test_kwargs_reason_only_when_explicit(self):
        kwargs = {"state_factory": object()}
        used, reason = _engine_decision("timefirst", "kernel", kwargs)
        assert used == "object"
        assert "state_factory" in reason
        assert _engine_decision("timefirst", "auto", kwargs) == ("object", None)

    def test_override_reason_only_when_explicit(self, monkeypatch):
        registry._ensure_loaded()

        def patched(query, database, tau=0, stats=None):
            raise AssertionError("should not run")

        monkeypatch.setitem(registry._REGISTRY, "timefirst", patched)
        used, reason = _engine_decision("timefirst", "kernel", {})
        assert used == "object"
        assert "overridden" in reason
        assert _engine_decision("timefirst", "auto", {}) == ("object", None)


class TestFallbackReasonSurfaced:
    def test_no_fast_path_noted(self, line3):
        query, db = line3
        stats = ExecutionStats()
        temporal_join(
            query, db, algorithm="baseline", engine="kernel", stats=stats
        )
        assert "no kernel fast path" in stats.notes["kernel.fallback_reason"]

    def test_kwargs_noted(self, star3):
        from repro.algorithms.hierarchical import HierarchicalState

        query, db = star3
        stats = ExecutionStats()
        temporal_join(
            query, db, algorithm="timefirst", engine="kernel",
            state_factory=lambda q, _db: HierarchicalState(q), stats=stats,
        )
        assert "state_factory" in stats.notes["kernel.fallback_reason"]
        assert "kernel.sort_calls" not in stats  # object path really ran

    def test_override_noted(self, star3, monkeypatch):
        from repro.algorithms.timefirst import timefirst_join

        query, db = star3
        registry._ensure_loaded()
        calls = []

        def wrapped(query, database, tau=0, stats=None, **kwargs):
            calls.append(1)
            return timefirst_join(query, database, tau=tau, stats=stats, **kwargs)

        monkeypatch.setitem(registry._REGISTRY, "timefirst", wrapped)
        stats = ExecutionStats()
        temporal_join(
            query, db, algorithm="timefirst", engine="kernel", stats=stats
        )
        assert calls  # the override ran — the kernel must not bypass it
        assert "overridden" in stats.notes["kernel.fallback_reason"]

    def test_auto_degradation_is_silent(self, line3):
        query, db = line3
        stats = ExecutionStats()
        temporal_join(
            query, db, algorithm="baseline", engine="auto", stats=stats
        )
        assert "kernel.fallback_reason" not in stats.notes

    def test_kernel_request_honored_leaves_no_note(self, star3):
        query, db = star3
        stats = ExecutionStats()
        temporal_join(
            query, db, algorithm="timefirst", engine="kernel", stats=stats
        )
        assert "kernel.fallback_reason" not in stats.notes
        assert stats["kernel.sort_calls"] == 1

    def test_parallel_path_notes_reason(self, line3):
        query, db = line3
        stats = ExecutionStats()
        temporal_join(
            query, db, algorithm="baseline", engine="kernel",
            workers=2, parallel_mode="inline", stats=stats,
        )
        assert "no kernel fast path" in stats.notes["kernel.fallback_reason"]

    def test_note_rendered(self, line3):
        query, db = line3
        stats = ExecutionStats()
        temporal_join(
            query, db, algorithm="baseline", engine="kernel", stats=stats
        )
        assert "kernel.fallback_reason" in stats.render()


class TestExplainAnalyzeEngine:
    """The reported engine is the engine that ran, never a guess."""

    def _engine_agrees_with_counters(self, report):
        ran_kernel = "kernel.sort_calls" in report.stats
        assert (report.engine == "kernel") == ran_kernel

    def test_auto_on_hierarchical_query(self, star3):
        # Planner picks timefirst -> kernel runs -> report says kernel.
        query, db = star3
        report = explain_analyze(query, db, algorithm="auto")
        assert report.algorithm == "timefirst"
        assert report.engine == "kernel"
        assert report.kernel_fallback is None
        self._engine_agrees_with_counters(report)

    def test_auto_resolving_to_non_kernel_algorithm(self, line3):
        # Planner routes line3 elsewhere (hybrid-interval); the report
        # must say "object" even though engine="auto" was kernel-willing.
        query, db = line3
        report = explain_analyze(query, db, algorithm="auto")
        assert report.algorithm != "timefirst"
        assert report.engine == "object"
        assert report.kernel_fallback is None
        self._engine_agrees_with_counters(report)

    def test_explicit_kernel_degradation_reported(self, line3):
        query, db = line3
        report = explain_analyze(
            query, db, algorithm="baseline", engine="kernel"
        )
        assert report.engine == "object"
        assert "no kernel fast path" in report.kernel_fallback
        assert "kernel fallback:" in report.render()
        self._engine_agrees_with_counters(report)

    def test_honored_kernel_request_reported(self, star3):
        query, db = star3
        report = explain_analyze(
            query, db, algorithm="timefirst", engine="kernel"
        )
        assert report.engine == "kernel"
        assert report.kernel_fallback is None
        assert "kernel fallback:" not in report.render()
        self._engine_agrees_with_counters(report)

    def test_forced_object_reported(self, star3):
        query, db = star3
        report = explain_analyze(
            query, db, algorithm="timefirst", engine="object"
        )
        assert report.engine == "object"
        assert report.kernel_fallback is None
        self._engine_agrees_with_counters(report)

    @pytest.mark.parametrize("family", ["line3", "star3", "triangle"])
    def test_engine_report_matches_execution_across_families(self, family):
        query = {
            "line3": JoinQuery.line(3),
            "star3": JoinQuery.star(3),
            "triangle": JoinQuery.triangle(),
        }[family]
        db = generate(query, SyntheticConfig(n_dangling=15, n_results=5))
        for engine in ("auto", "kernel", "object"):
            report = explain_analyze(query, db, algorithm="auto", engine=engine)
            self._engine_agrees_with_counters(report)


class TestOneRouteDecision:
    """Every entry point validates and plans through the same route."""

    @pytest.mark.parametrize("workers", [0, -1])
    def test_explain_analyze_rejects_workers_below_one(self, star3, workers):
        query, db = star3
        with pytest.raises(QueryError, match="workers must be >= 1"):
            explain_analyze(query, db, workers=workers)

    def test_parallel_call_records_the_serial_planner_counters(self, line3):
        query, db = line3
        serial, sharded = ExecutionStats(), ExecutionStats()
        temporal_join(query, db, stats=serial)
        temporal_join(query, db, workers=2, parallel_mode="inline", stats=sharded)
        planner = {k: v for k, v in serial.counters.items() if k.startswith("planner.")}
        assert planner
        for name, value in planner.items():
            assert sharded[name] == value
        assert "phase.planner.search" in sharded.timers
