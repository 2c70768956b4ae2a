"""Kernel engine: dispatch, columns, counters, timeline bridge.

The kernel substrate's contract is *indistinguishability*: the same
normalized results, the same ``sweep.*`` / ``hier.*`` counter values and
the same dispatch ergonomics as the object path, plus the ``kernel.*``
telemetry that is new. The randomized result equality is a row of
``test_route_matrix.py`` (hypothesis); this file pins the mechanics.
"""

import math
import re
import pytest

from repro import ExecutionStats, explain_analyze, temporal_join
from repro.core.errors import QueryError
from repro.core.interval import Interval
from repro.core.planner import plan
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.core.timeline import concurrency_timeline, timeline_from_sorted_events
from repro.kernels import (
    KernelColumns,
    build_columns,
    kernel_columns,
    shard_row_ids,
    supports_kernel,
    sweep_columns,
)
from repro.algorithms.registry import available_algorithms

from conftest import random_database


def _cold_kernel_join(query, db):
    """The serial kernel route without an artifact: read, then sweep."""
    run_query, columns = kernel_columns(query, db)
    return sweep_columns(run_query, columns)


@pytest.fixture
def line3(rng):
    query = JoinQuery.line(3)
    return query, random_database(query, rng, n=15, domain=4)


@pytest.fixture
def star3(rng):
    query = JoinQuery.star(3)
    return query, random_database(query, rng, n=15, domain=4)


@pytest.fixture
def joining_star3():
    """A star whose every row is in a result: the semijoin pass drops none."""
    query = JoinQuery.star(3)
    return query, {
        name: TemporalRelation(
            name, query.edge(name),
            [((f"{name}-{k}-{i}", k), (k + i, k + 10)) for k in range(5) for i in range(3)],
        )
        for name in query.edge_names
    }


class TestDispatch:
    def test_engine_values_accepted(self, line3):
        query, db = line3
        ref = temporal_join(query, db, algorithm="timefirst", engine="object")
        for engine in ("auto", "kernel"):
            got = temporal_join(query, db, algorithm="timefirst", engine=engine)
            assert got.normalized() == ref.normalized()

    def test_unknown_engine_rejected(self, line3):
        query, db = line3
        with pytest.raises(QueryError, match="engine"):
            temporal_join(query, db, engine="vectorized")

    def test_kernel_engine_on_unsupported_algorithm_degrades(self, star3):
        """Satellite bugfix: ``engine=`` must be *stripped* for algorithms
        without a kernel fast path, never forwarded (TypeError) nor
        rejected (QueryError)."""
        # star3 is hierarchical, so every registered algorithm (including
        # timefirst-cm) accepts it.
        query, db = star3
        for algorithm in available_algorithms():
            ref = temporal_join(query, db, algorithm=algorithm, engine="object")
            got = temporal_join(query, db, algorithm=algorithm, engine="kernel")
            assert got.normalized() == ref.normalized(), algorithm

    def test_state_factory_forces_object_path(self, star3):
        query, db = star3
        from repro.algorithms.hierarchical import HierarchicalState

        stats = ExecutionStats()
        out = temporal_join(
            query, db, algorithm="timefirst", engine="kernel",
            state_factory=lambda q, d: HierarchicalState(q),
            stats=stats,
        )
        ref = temporal_join(query, db, algorithm="timefirst", engine="object")
        assert out.normalized() == ref.normalized()
        # The kernel never ran: no interning pass happened.
        assert "kernel.sort_calls" not in stats

    def test_supports_kernel_probe(self):
        assert supports_kernel("timefirst")
        for name in ("baseline", "hybrid", "joinfirst", "naive", "timefirst-cm"):
            assert not supports_kernel(name)

    def test_plan_reports_engine(self):
        assert plan(JoinQuery.star(3)).engine == "kernel"
        assert plan(JoinQuery.triangle()).engine == "object"  # hybrid
        assert "engine" in plan(JoinQuery.star(3)).explain()

    def test_explain_analyze_reports_engine(self, star3):
        query, db = star3
        report = explain_analyze(query, db, algorithm="timefirst")
        assert report.engine == "kernel"
        assert "engine:     kernel" in report.render()
        report = explain_analyze(
            query, db, algorithm="timefirst", engine="object"
        )
        assert report.engine == "object"
        report = explain_analyze(query, db, algorithm="baseline")
        assert report.engine == "object"


class TestCounters:
    def test_sort_happens_once_per_call(self, line3):
        """Satellite: the event stream is built and sorted exactly once
        per ``temporal_join`` call, shared by the whole sweep."""
        query, db = line3
        stats = ExecutionStats()
        temporal_join(query, db, algorithm="timefirst", stats=stats)
        assert stats["kernel.sort_calls"] == 1
        temporal_join(query, db, algorithm="timefirst", stats=stats)
        assert stats["kernel.sort_calls"] == 2  # accumulation, not reset

    def test_kernel_counters_recorded(self, line3):
        query, db = line3
        n = sum(len(rel) for rel in db.values())
        stats = ExecutionStats()
        temporal_join(query, db, algorithm="timefirst", stats=stats)
        # Every input row is either swept or dropped by the semijoin pass.
        assert stats["kernel.rows"] + stats["kernel.semijoin_dropped"] == n
        assert stats["kernel.interned_values"] >= 1
        assert stats["kernel.distinct_endpoints"] >= 1
        assert "phase.kernel.intern" in stats.timers
        assert "phase.kernel.rank" in stats.timers
        assert "phase.kernel.semijoin" in stats.timers
        assert "phase.events" in stats.timers
        assert "phase.sweep" in stats.timers

    @staticmethod
    def _both_engines(query, db):
        kernel, obj = ExecutionStats(), ExecutionStats()
        temporal_join(query, db, algorithm="timefirst", engine="kernel", stats=kernel)
        temporal_join(query, db, algorithm="timefirst", engine="object", stats=obj)
        return kernel, obj

    def test_sweep_counters_match_object_engine(self, line3, star3, joining_star3):
        for query, db in (line3, star3, joining_star3):
            kernel, obj = self._both_engines(query, db)
            dropped = kernel["kernel.semijoin_dropped"]
            assert kernel["results"] == obj["results"]
            if dropped == 0:
                for key in ("sweep.events", "sweep.inserts",
                            "sweep.enumerate_calls", "sweep.active_peak"):
                    assert kernel[key] == obj[key], key
                continue
            # The kernel sweeps every row but the ones the pass drops.
            assert obj["sweep.events"] - kernel["sweep.events"] == 2 * dropped
            assert obj["sweep.inserts"] - kernel["sweep.inserts"] == dropped
            assert obj["sweep.enumerate_calls"] - kernel["sweep.enumerate_calls"] == dropped
            assert kernel["sweep.active_peak"] <= obj["sweep.active_peak"]
        # The fixtures cover both cases.
        assert self._both_engines(*joining_star3)[0]["kernel.semijoin_dropped"] == 0
        assert self._both_engines(*star3)[0]["kernel.semijoin_dropped"] > 0

    def test_hier_counters_match_object_engine(self, star3, joining_star3):
        for query, db in (star3, joining_star3):
            kernel, obj = self._both_engines(query, db)
            dropped = kernel["kernel.semijoin_dropped"]
            assert kernel["hier.report_fragments"] == obj["hier.report_fragments"]
            if dropped == 0:
                for key in ("hier.inserts", "hier.deletes", "hier.support_updates"):
                    assert kernel.get(key) == obj.get(key), key
                continue
            assert obj["hier.inserts"] - kernel["hier.inserts"] == dropped
            assert obj["hier.deletes"] - kernel["hier.deletes"] == dropped
            assert kernel["hier.support_updates"] <= obj["hier.support_updates"]


class TestColumns:
    def test_rank_roundtrip_is_exact(self, line3):
        _, db = line3
        columns = build_columns(db)
        rid = 0
        for name in db:
            for _, interval in db[name]:
                assert columns.rank_times[columns.row_lo[rid]] == interval.lo
                assert columns.rank_times[columns.row_hi[rid]] == interval.hi
                rid += 1

    def test_event_codes_sorted_and_complete(self, line3):
        _, db = line3
        columns = build_columns(db)
        codes = columns.event_codes
        assert codes == sorted(codes)
        assert len(codes) == 2 * columns.n_rows

    def test_infinite_endpoints_rank_as_ordinary_values(self):
        query = JoinQuery({"R": ("a", "b"), "S": ("b", "c")})
        inf = float("inf")
        db = {
            "R": TemporalRelation("R", ("a", "b"),
                                  [((1, 2), Interval(-inf, 5)),
                                   ((3, 2), Interval(0, inf))]),
            "S": TemporalRelation("S", ("b", "c"),
                                  [((2, 7), Interval.always())]),
        }
        columns = build_columns(db)
        assert columns.rank_times[0] == -inf
        assert columns.rank_times[-1] == inf
        ref = temporal_join(query, db, algorithm="timefirst", engine="object")
        got = _cold_kernel_join(query, db)
        assert got.normalized() == ref.normalized()

    def test_deintern_restores_original_objects(self):
        query = JoinQuery({"R": ("a", "b"), "S": ("b", "c")})
        db = {
            "R": TemporalRelation("R", ("a", "b"),
                                  [(("x", ("t", 1)), (0, 4))]),
            "S": TemporalRelation("S", ("b", "c"),
                                  [((("t", 1), None), (2, 6))]),
        }
        out = _cold_kernel_join(query, db)
        assert out.normalized() == [(("x", ("t", 1), None), Interval(2, 4))]

    def test_subset_reranks_locally(self, line3):
        _, db = line3
        columns = build_columns(db)
        sub = columns.subset([0, 2, 4])
        assert sub.n_rows == 3
        assert sub.event_codes == sorted(sub.event_codes)
        for local, rid in enumerate([0, 2, 4]):
            assert sub.rank_times[sub.row_lo[local]] == \
                columns.rank_times[columns.row_lo[rid]]
            assert sub.row_values[local] == columns.row_values[rid]

    def test_columns_pickle_roundtrip(self, line3):
        import pickle

        _, db = line3
        columns = build_columns(db)
        clone = pickle.loads(pickle.dumps(columns))
        assert isinstance(clone, KernelColumns)
        assert clone.event_codes == columns.event_codes
        assert clone.row_values == columns.row_values

    def test_shard_row_ids_covers_every_row(self, line3):
        _, db = line3
        columns = build_columns(db)
        cuts = (5, 15)
        shards = shard_row_ids(columns, cuts)
        seen = set()
        for rids in shards:
            seen.update(rids)
        assert seen == set(range(columns.n_rows))


class TestDuplicateActiveTuples:
    def test_kernel_hierarchical_rejects_duplicates_like_object(self):
        query = JoinQuery({"R": ("a", "b"), "S": ("b", "c")})
        dup = TemporalRelation("R", ("a", "b"), check_distinct=False)
        dup._rows = [(("a1", "b1"), Interval(0, 10)),
                     (("a1", "b1"), Interval(5, 15))]
        db = {
            "R": dup,
            "S": TemporalRelation("S", ("b", "c"), [(("b1", "c1"), (2, 12))]),
        }
        with pytest.raises(QueryError, match="duplicate active tuple"):
            temporal_join(query, db, algorithm="timefirst", engine="object")
        with pytest.raises(QueryError, match="duplicate active tuple"):
            _cold_kernel_join(query, db)

    @staticmethod
    def _overlapping(query, name, values, others):
        """``name`` holds ``values`` twice, on overlapping intervals."""
        db = {
            rel: TemporalRelation(rel, query.edge(rel), [(others[rel], (0, 9))])
            for rel in query.edge_names
            if rel != name
        }
        db[name] = TemporalRelation(
            name, query.edge(name), [(values, (0, 5)), (values, (1, 6))],
            check_distinct=False,
        )
        return db

    @pytest.mark.parametrize("engine", ["object", "kernel"])
    def test_hierarchical_error_shows_the_tuple_as_given(self, engine):
        query = JoinQuery.star(2)
        db = self._overlapping(query, "R1", ("alice", "x"), {"R2": ("bob", "x")})
        message = "duplicate active tuple ('alice', 'x') in relation 'R1'"
        with pytest.raises(QueryError, match=re.escape(message)):
            temporal_join(query, db, algorithm="timefirst", engine=engine)

    @pytest.mark.parametrize("route", ["object", "kernel", "serve"])
    def test_ghd_state_rejects_duplicates_with_a_typed_error(self, route):
        # Before, the second insert overwrote the first, and the first
        # expiry's delete made the second raise a bare KeyError.
        from repro.serve import TemporalJoinService

        query = JoinQuery.line(3)
        assert not query.is_hierarchical
        db = self._overlapping(
            query, "R1", ("a", "b"), {"R2": ("b", "c"), "R3": ("c", "d")}
        )
        message = "duplicate active tuple ('a', 'b') in relation 'R1'"
        with pytest.raises(QueryError, match=re.escape(message)):
            if route == "serve":
                service = TemporalJoinService()
                service.register(query)
                service.ingest_database(db)
            else:
                temporal_join(query, db, algorithm="timefirst", engine=route)


class TestTimelineBridge:
    def test_columns_timeline_matches_interval_resweep(self, rng):
        """Satellite regression: Timeline built from the pre-sorted
        kernel endpoint arrays is identical to the raw-interval sweep."""
        for _ in range(10):
            intervals = []
            rows = []
            for i in range(rng.randrange(1, 25)):
                lo = rng.randrange(-5, 10)
                iv = Interval(lo, lo + rng.randrange(0, 6))
                intervals.append(iv)
                rows.append(((i,), iv))
            rel = TemporalRelation("R", ("a",), rows)
            columns = build_columns({"R": rel})
            assert columns.timeline() == concurrency_timeline(intervals)

    def test_timeline_with_duplicate_and_infinite_endpoints(self):
        inf = float("inf")
        intervals = [Interval(0, 5), Interval(0, 5), Interval(5, 5),
                     Interval(-inf, 0), Interval(5, inf)]
        rows = [((i,), iv) for i, iv in enumerate(intervals)]
        columns = build_columns({"R": TemporalRelation("R", ("a",), rows)})
        assert columns.timeline() == concurrency_timeline(intervals)

    def test_empty_events(self):
        assert timeline_from_sorted_events(()) == concurrency_timeline([])
        assert build_columns({}).timeline() == concurrency_timeline([])


class TestTauReduction:
    def test_kernel_tau_matches_object(self, line3, star3):
        for query, db in (line3, star3):
            for tau in (0, 1, 7):
                ref = temporal_join(query, db, tau=tau,
                                    algorithm="timefirst", engine="object")
                got = temporal_join(query, db, tau=tau,
                                    algorithm="timefirst", engine="kernel")
                assert got.normalized() == ref.normalized(), tau

    def test_non_finite_tau_still_rejected(self, line3):
        query, db = line3
        with pytest.raises(QueryError):
            temporal_join(query, db, tau=math.inf, engine="kernel")
