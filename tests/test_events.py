"""Tests for the shared sweep event encoding and its tie-breaking rules."""

from array import array

from repro.algorithms.events import (
    EXPIRE,
    INSERT,
    _rank_endpoints,
    _sorted_event_codes,
    event_codes,
)
from repro.algorithms.timefirst import sweep
from repro.core.interval import Interval
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation


def decoded(spans):
    """``(time, kind, row)`` per event code of rows with intervals ``spans``."""
    intervals = [Interval(lo, hi) for lo, hi in spans]
    rank_times, _, _ = _rank_endpoints(
        [i.lo for i in intervals], [i.hi for i in intervals]
    )
    n = len(intervals)
    return [
        (rank_times[code // (2 * n)], (code // n) & 1, code % n)
        for code in event_codes(intervals)
    ]


class TestEventStream:
    def test_two_events_per_tuple(self):
        events = decoded([(0, 5), (3, 9)])
        assert len(events) == 4
        kinds = [(kind, row) for _, kind, row in events]
        assert kinds.count((INSERT, 0)) == 1
        assert kinds.count((EXPIRE, 0)) == 1

    def test_sorted_by_time(self):
        events = decoded([(5, 9), (0, 2)])
        times = [time for time, _, _ in events]
        assert times == sorted(times)
        assert events[0] == (0, INSERT, 1)

    def test_insert_before_expire_at_same_time(self):
        # [0,5] expires at 5; [5,9] inserts at 5. Insert must come first so
        # the touching pair joins.
        events = decoded([(0, 5), (5, 9)])
        at_five = [(kind, row) for time, kind, row in events if time == 5]
        assert at_five == [(INSERT, 1), (EXPIRE, 0)]

    def test_instant_interval_orders_insert_first(self):
        assert decoded([(3, 3)]) == [(3, INSERT, 0), (3, EXPIRE, 0)]

    def test_deterministic_sequence_for_ties(self):
        # Equal (time, kind) events follow row id, i.e. input order.
        assert decoded([(0, 5), (0, 5)]) == [
            (0, INSERT, 0), (0, INSERT, 1), (5, EXPIRE, 0), (5, EXPIRE, 1),
        ]
        # Equal endpoints of different types share one rank.
        assert [row for _, _, row in decoded([(1.0, 4), (1, 4.0)])] == [0, 1, 0, 1]

    def test_multi_relation_interleaving(self):
        # The object sweep numbers rows relation by relation: equal-time
        # events of R1 and R2 follow database order.
        db = {
            "R1": TemporalRelation("R1", ("a",), [((1,), (0, 10)), ((3,), (5, 8))]),
            "R2": TemporalRelation("R2", ("b",), [((2,), (5, 6))]),
        }
        calls = []

        class Recorder:
            def insert(self, relation, values, interval):
                calls.append(("insert", relation, values))

            def enumerate_results(self, relation, values, interval, out):
                calls.append(("expire", relation, values))

            def delete(self, relation, values, interval):
                pass

            def record(self, inserts, deletes, rows):
                pass

        sweep(JoinQuery({"R1": ("a",), "R2": ("b",)}), db, Recorder())
        assert calls == [
            ("insert", "R1", (1,)),
            ("insert", "R1", (3,)),
            ("insert", "R2", (2,)),
            ("expire", "R2", (2,)),
            ("expire", "R1", (3,)),
            ("expire", "R1", (1,)),
        ]


class TestEndpointCount:
    def test_distinct_endpoints(self):
        rank_times, row_lo, row_hi = _rank_endpoints([0, 0, 5], [5, 5, 9])
        assert rank_times == [0, 5, 9]
        assert list(row_lo) == [0, 0, 1]
        assert list(row_hi) == [1, 1, 2]
        assert _sorted_event_codes(row_lo, row_hi) == event_codes(
            [Interval(0, 5), Interval(0, 5), Interval(5, 9)]
        )
        assert _sorted_event_codes(array("q"), array("q")) == []
