"""Tests for repro.core.result.JoinResultSet."""

import pytest

from repro.core.interval import Interval
from repro.core.result import JoinResultSet, merge_result_sets
from repro.core.errors import IntervalError, SchemaError


def build(rows):
    out = JoinResultSet(("a", "b"))
    for values, iv in rows:
        out.append(values, Interval.coerce(iv))
    return out


class TestContainer:
    def test_append_iter_len(self):
        rs = build([((1, 2), (0, 5)), ((3, 4), (1, 2))])
        assert len(rs) == 2
        assert rs[0] == ((1, 2), Interval(0, 5))
        assert bool(rs)

    def test_empty_falsy(self):
        assert not JoinResultSet(("a",))

    def test_extend(self):
        rs = build([((1, 2), (0, 5))])
        rs.extend([((9, 9), Interval(0, 1))])
        assert len(rs) == 2


class TestComparisons:
    def test_normalized_sorts(self):
        rs = build([((3, 4), (1, 2)), ((1, 2), (0, 5))])
        assert rs.normalized()[0][0] == (1, 2)

    def test_same_results_order_insensitive(self):
        a = build([((1, 2), (0, 5)), ((3, 4), (1, 2))])
        b = build([((3, 4), (1, 2)), ((1, 2), (0, 5))])
        assert a.same_results(b)

    def test_same_results_interval_sensitive(self):
        a = build([((1, 2), (0, 5))])
        b = build([((1, 2), (0, 6))])
        assert not a.same_results(b)

    def test_same_results_needs_same_attrs(self):
        a = build([((1, 2), (0, 5))])
        b = JoinResultSet(("x", "y"), a.rows)
        assert not a.same_results(b)


class TestTransformations:
    def test_filter_durable(self):
        rs = build([((1, 2), (0, 5)), ((3, 4), (1, 2))])
        assert len(rs.filter_durable(3)) == 1

    def test_filter_durable_boundary_inclusive(self):
        rs = build([((1, 2), (0, 5))])
        assert len(rs.filter_durable(5)) == 1
        assert len(rs.filter_durable(5.0001)) == 0

    def test_expand_intervals(self):
        rs = build([((1, 2), (2, 5))]).expand_intervals(2)
        assert rs[0][1] == Interval(0, 7)

    def test_expand_zero_is_identity(self):
        rs = build([((1, 2), (2, 5))])
        assert rs.expand_intervals(0) is rs

    @pytest.mark.parametrize("amount", [0, 1.5, 85, float("inf")])
    def test_expand_intervals_equals_per_row_expand(self, amount):
        inf = float("inf")
        rows = [
            ((1, 2), (-inf, inf)),
            ((1, 3), (-inf, 4)),
            ((1, 4), (4, inf)),
            ((2, 2), (4, 4)),  # zero-length, endpoints shared with the rows above
            ((2, 3), (4, 4)),  # duplicate interval
            ((3, 3), (-2.5, 0)),
        ]
        rs = build(rows)
        got = rs.expand_intervals(amount)
        assert got.attrs == rs.attrs
        assert got.rows == [(v, iv.expand(amount)) for v, iv in rs]

    def test_expand_intervals_negative_amount_stays_checked(self):
        with pytest.raises(IntervalError):
            build([((1, 2), (2, 3))]).expand_intervals(-1)

    def test_values_only(self):
        rs = build([((1, 2), (0, 5)), ((3, 4), (1, 2))])
        assert rs.values_only() == [(1, 2), (3, 4)]

    def test_count_by_thresholds(self):
        rs = build([((1, 2), (0, 5)), ((3, 4), (0, 2)), ((5, 6), (0, 9))])
        counts = rs.count_by_thresholds([0, 3, 6, 100])
        assert counts == {0: 3, 3: 2, 6: 1, 100: 0}


class TestMerge:
    def test_merge_ok(self):
        a = build([((1, 2), (0, 5))])
        b = build([((3, 4), (1, 2))])
        merged = merge_result_sets(("a", "b"), [a, b])
        assert len(merged) == 2

    def test_merge_layout_mismatch(self):
        a = build([((1, 2), (0, 5))])
        b = JoinResultSet(("x", "y"))
        with pytest.raises(SchemaError):
            merge_result_sets(("a", "b"), [a, b])
