"""Tests for the online (streaming) temporal join operator."""

import pytest

from repro.algorithms.naive import naive_join
from repro.algorithms.online import (
    OnlineTemporalJoin,
    arrivals_from_database,
    stream_temporal_join,
)
from repro.core.errors import QueryError
from repro.core.interval import Interval
from repro.core.query import JoinQuery
from repro.core.result import JoinResultSet
from repro.obs import ExecutionStats

from conftest import random_database


class TestBasics:
    def test_simple_pair_emitted_at_expiry(self):
        q = JoinQuery.star(2)
        op = OnlineTemporalJoin(q)
        assert op.insert("R1", (1, "h"), (0, 10)) == []
        assert op.insert("R2", (2, "h"), (2, 5)) == []
        out = op.advance_to(6)
        assert out == [((1, "h", 2), Interval(2, 5))]

    def test_insert_drains_earlier_expirations(self):
        q = JoinQuery.star(2)
        op = OnlineTemporalJoin(q)
        op.insert("R1", (1, "h"), (0, 3))
        op.insert("R2", (2, "h"), (1, 2))
        # An arrival at t=5 proves both earlier tuples expired.
        out = op.insert("R1", (9, "h"), (5, 8))
        assert out == [((1, "h", 2), Interval(1, 2))]

    def test_touching_arrival_at_watermark_joins(self):
        q = JoinQuery.star(2)
        op = OnlineTemporalJoin(q)
        op.insert("R1", (1, "h"), (0, 5))
        op.advance_to(5)  # must NOT expire [0,5] yet
        op.insert("R2", (2, "h"), (5, 9))
        out = op.finish()
        assert ((1, "h", 2), Interval(5, 5)) in out

    def test_finish_flushes_and_closes(self):
        q = JoinQuery.star(2)
        op = OnlineTemporalJoin(q)
        op.insert("R1", (1, "h"), (0, 5))
        op.insert("R2", (2, "h"), (0, 5))
        out = op.finish()
        assert len(out) == 1
        with pytest.raises(QueryError):
            op.insert("R1", (3, "h"), (9, 10))
        with pytest.raises(QueryError):
            op.advance_to(100)

    def test_strict_rejects_out_of_order(self):
        q = JoinQuery.star(2)
        op = OnlineTemporalJoin(q)
        op.insert("R1", (1, "h"), (0, 2))
        op.insert("R1", (2, "h"), (10, 12))  # drains the first expiry
        with pytest.raises(QueryError):
            op.insert("R2", (3, "h"), (1, 20))

    def test_lenient_clamps_out_of_order(self):
        q = JoinQuery.star(2)
        op = OnlineTemporalJoin(q, strict=False)
        op.insert("R1", (1, "h"), (0, 2))
        op.insert("R1", (2, "h"), (10, 12))
        op.insert("R2", (3, "h"), (1, 20))  # clamped to [2, 20]
        out = op.finish()
        values = {v for v, _ in out}
        assert (2, "h", 3) in values  # joins the second tuple
        assert (1, "h", 3) not in values  # the first was already expired

    def test_active_count_is_bounded(self):
        q = JoinQuery.star(2)
        op = OnlineTemporalJoin(q)
        for i in range(50):
            op.insert("R1", (i, "h"), (i, i + 1))
            assert op.active_count <= 2
        op.finish()
        assert op.active_count == 0


class TestEquivalenceWithOffline:
    @pytest.mark.parametrize(
        "query",
        [JoinQuery.star(3), JoinQuery.line(3), JoinQuery.triangle(), JoinQuery.hier()],
    )
    def test_stream_matches_offline(self, query, rng):
        from repro.algorithms.timefirst import timefirst_join

        for _ in range(3):
            db = random_database(query, rng, n=12, domain=3)
            arrivals = arrivals_from_database(db)
            streamed = JoinResultSet(
                query.attrs, stream_temporal_join(query, arrivals)
            )
            offline = naive_join(query, db)
            assert streamed.normalized() == offline.normalized()

    def test_results_accumulate(self, rng):
        query = JoinQuery.star(2)
        db = random_database(query, rng, n=15, domain=3)
        op = OnlineTemporalJoin(query)
        emitted = []
        for relation, values, interval in arrivals_from_database(db):
            emitted.extend(op.insert(relation, values, interval))
        emitted.extend(op.finish())
        assert sorted(emitted) == sorted(op.results().rows)

    def test_each_result_emitted_once(self, rng):
        query = JoinQuery.star(2)
        db = random_database(query, rng, n=15, domain=2, time_span=10)
        arrivals = arrivals_from_database(db)
        rows = list(stream_temporal_join(query, arrivals))
        assert len(rows) == len(set(rows))


class TestBoundaryExpiry:
    """Watermark exactly at a tuple's right endpoint (closed-interval edge).

    ``advance_to(w)`` drains strictly below ``w``: a tuple expiring
    exactly at ``w`` may still join a future arrival starting at ``w``
    (closed intervals touch), so boundary expiry must be deferred — and
    then finalized *exactly once* by a later watermark or ``finish()``.
    """

    def _pair(self):
        q = JoinQuery.star(2)
        op = OnlineTemporalJoin(q)
        op.insert("R1", (1, "h"), (0, 5))
        op.insert("R2", (2, "h"), (2, 5))
        return op

    def test_watermark_at_right_endpoint_defers_expiry(self):
        op = self._pair()
        assert op.advance_to(5) == []
        assert op.active_count == 2  # nothing finalized yet

    def test_repeated_boundary_watermarks_do_not_duplicate(self):
        op = self._pair()
        assert op.advance_to(5) == []
        assert op.advance_to(5) == []
        out = op.advance_to(5.1)
        assert out == [((1, "h", 2), Interval(2, 5))]
        assert op.advance_to(5.1) == []
        assert op.finish() == []

    def test_boundary_expiry_then_finish_emits_exactly_once(self):
        op = self._pair()
        op.advance_to(5)
        out = op.finish()
        assert out == [((1, "h", 2), Interval(2, 5))]
        assert op.results().rows.count(((1, "h", 2), Interval(2, 5))) == 1

    def test_arrival_at_boundary_still_joins_deferred_tuple(self):
        op = self._pair()
        op.advance_to(5)
        out = op.insert("R2", (3, "h"), (5, 7))
        # Inserting at t=5 drains strictly-before-5 only; both results
        # appear when the boundary tuples finally expire.
        final = out + op.finish()
        assert sorted(final) == [
            ((1, "h", 2), Interval(2, 5)),
            ((1, "h", 3), Interval(5, 5)),
        ]

    def test_instant_tuple_at_watermark(self):
        q = JoinQuery.star(2)
        op = OnlineTemporalJoin(q)
        op.insert("R1", (1, "h"), (3, 3))
        op.insert("R2", (2, "h"), (3, 3))
        assert op.advance_to(3) == []  # the instant [3,3] is not yet safe
        assert op.finish() == [((1, "h", 2), Interval(3, 3))]


class TestTelemetry:
    """``stats=`` wiring: the online operator reports the offline sweep's
    counters (satellite of the serving PR; exactness asserted below)."""

    #: Counters that must match the offline sweep *exactly* after a full
    #: endpoint-ordered replay. State-level totals (``hier.inserts`` /
    #: ``hier.deletes``) are order-invariant and included; tie-order
    #: sensitive internals (e.g. which of two same-endpoint tuples
    #: enumerates a shared result) are deliberately not.
    EXACT = (
        "sweep.events",
        "sweep.inserts",
        "sweep.enumerate_calls",
        "sweep.active_peak",
        "results",
        "hier.inserts",
        "hier.deletes",
    )

    @pytest.mark.parametrize(
        "query",
        [JoinQuery.star(3), JoinQuery.line(3), JoinQuery.hier(), JoinQuery.triangle()],
    )
    def test_counters_match_offline_sweep(self, query, rng):
        from repro.algorithms.timefirst import timefirst_join

        for _ in range(3):
            db = random_database(query, rng, n=14, domain=3)
            offline_stats = ExecutionStats()
            offline = timefirst_join(query, db, stats=offline_stats)

            online_stats = ExecutionStats()
            op = OnlineTemporalJoin(query, stats=online_stats)
            for relation, values, interval in arrivals_from_database(db):
                op.insert(relation, values, interval)
            op.finish()

            assert op.results().normalized() == offline.normalized()
            for name in self.EXACT:
                assert online_stats.get(name) == offline_stats.get(name), name

    def test_no_stats_records_nothing(self):
        q = JoinQuery.star(2)
        op = OnlineTemporalJoin(q)
        op.insert("R1", (1, "h"), (0, 3))
        op.finish()
        assert op._stats is None  # the stats=None path stays dark

    def test_stream_facade_forwards_stats(self, rng):
        q = JoinQuery.star(2)
        db = random_database(q, rng, n=10, domain=3)
        stats = ExecutionStats()
        rows = list(
            stream_temporal_join(q, arrivals_from_database(db), stats=stats)
        )
        assert stats["sweep.inserts"] == sum(len(r) for r in db.values())
        assert stats.get("results") == len(rows)

    def test_active_peak_tracks_pending(self):
        q = JoinQuery.star(2)
        stats = ExecutionStats()
        op = OnlineTemporalJoin(q, stats=stats)
        op.insert("R1", (1, "h"), (0, 10))
        op.insert("R2", (2, "h"), (1, 9))
        op.insert("R1", (3, "h"), (2, 8))
        assert stats["sweep.active_peak"] == 3
        op.finish()
        assert stats["sweep.active_peak"] == 3
        assert stats["sweep.events"] == 6


class TestClampTelemetry:
    """Non-strict clamps must never be silent (satellite 2)."""

    def test_clamp_records_counter_and_note(self):
        q = JoinQuery.star(2)
        stats = ExecutionStats()
        op = OnlineTemporalJoin(q, strict=False, stats=stats)
        op.insert("R1", (1, "h"), (0, 2))
        op.insert("R1", (2, "h"), (10, 12))  # drains [0,2] -> watermark 2
        op.insert("R2", (3, "h"), (1, 20))  # clamped to [2, 20]
        assert stats["online.clamped"] == 1
        assert "online.clamp_reason" in stats.notes
        reason = stats.notes["online.clamp_reason"]
        assert "clamped" in reason and "watermark 2" in reason

    def test_clamp_at_equal_watermark_is_not_a_clamp(self):
        q = JoinQuery.star(2)
        stats = ExecutionStats()
        op = OnlineTemporalJoin(q, strict=False, stats=stats)
        op.insert("R1", (1, "h"), (0, 2))
        op.advance_to(5)
        # Start exactly at the watermark: legal, no clamp, no note.
        out = op.insert("R2", (2, "h"), (5, 6))
        assert out == []
        assert stats.get("online.clamped") == 0
        assert "online.clamp_reason" not in stats.notes
        # Strict mode accepts it too.
        op2 = OnlineTemporalJoin(q, strict=True)
        op2.insert("R1", (1, "h"), (0, 2))
        op2.advance_to(5)
        op2.insert("R2", (2, "h"), (5, 6))  # must not raise

    def test_clamp_of_zero_length_interval(self):
        q = JoinQuery.star(2)
        stats = ExecutionStats()
        op = OnlineTemporalJoin(q, strict=False, stats=stats)
        op.insert("R1", (1, "h"), (0, 10))
        op.advance_to(5)
        # An instant tuple entirely in the past collapses to [w, w] and
        # can still join tuples alive at the watermark.
        out = op.insert("R2", (2, "h"), (3, 3))
        assert out == []
        assert stats["online.clamped"] == 1
        assert "[5, 5]" in stats.notes["online.clamp_reason"]
        final = op.finish()
        assert ((1, "h", 2), Interval(5, 5)) in final

    def test_strict_mode_rejects_instead_of_clamping(self):
        q = JoinQuery.star(2)
        op = OnlineTemporalJoin(q, strict=True)
        op.insert("R1", (1, "h"), (0, 10))
        op.advance_to(5)
        with pytest.raises(QueryError):
            op.insert("R2", (2, "h"), (3, 3))


class TestWatermarkContract:
    """advance_to monotonicity and finish() idempotency (satellite 3)."""

    def test_advance_to_declares_watermark(self):
        q = JoinQuery.star(2)
        op = OnlineTemporalJoin(q)
        assert op.watermark is None
        op.advance_to(7)
        assert op.watermark == 7
        with pytest.raises(QueryError):
            op.insert("R1", (1, "h"), (3, 9))  # violates the declaration

    def test_non_monotone_watermark_is_a_noop(self):
        q = JoinQuery.star(2)
        stats = ExecutionStats()
        op = OnlineTemporalJoin(q, stats=stats)
        op.insert("R1", (1, "h"), (0, 4))
        op.insert("R2", (2, "h"), (1, 4))
        op.advance_to(10)
        assert op.watermark == 10
        out = op.advance_to(3)  # regression: no-op, nothing re-emitted
        assert out == []
        assert op.watermark == 10
        assert stats["online.watermark_regressions"] == 1
        # An equal watermark is idempotent, not a regression.
        assert op.advance_to(10) == []
        assert stats["online.watermark_regressions"] == 1

    def test_results_not_duplicated_after_regression(self):
        q = JoinQuery.star(2)
        op = OnlineTemporalJoin(q)
        op.insert("R1", (1, "h"), (0, 4))
        op.insert("R2", (2, "h"), (1, 4))
        first = op.advance_to(10)
        assert len(first) == 1
        assert op.advance_to(2) == []
        assert op.finish() == []
        assert len(op.results()) == 1

    def test_finish_is_idempotent(self):
        q = JoinQuery.star(2)
        op = OnlineTemporalJoin(q)
        op.insert("R1", (1, "h"), (0, 5))
        op.insert("R2", (2, "h"), (2, 5))
        first = op.finish()
        assert first == [((1, "h", 2), Interval(2, 5))]
        assert op.finish() == []  # second call: empty, no re-emission
        assert op.finish() == []
        assert len(op.results()) == 1
