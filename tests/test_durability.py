"""Tests for the durability transforms (paper §2.1 remarks)."""

import pytest

from repro.algorithms.naive import naive_join
from repro.core.durability import (
    coalesce_results,
    durability,
    explode_interval_sets,
    lead_lag_transform,
    relative_pattern_transform,
    shrink_database,
    widen_instants,
)
from repro.core.interval import Interval, IntervalSet
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.core.result import JoinResultSet
from repro.core.errors import QueryError

from conftest import random_database


class TestShrinkDatabase:
    def test_zero_tau_identity(self):
        rel = TemporalRelation("R", ("a",), [((1,), (0, 10))])
        out = shrink_database({"R": rel}, 0)
        assert out["R"] is rel

    def test_negative_tau_rejected(self):
        with pytest.raises(QueryError):
            shrink_database({}, -1)

    @pytest.mark.parametrize(
        "rows",
        [[], [((1,), Interval.always())], [((1,), (0, 10))]],
        ids=["empty", "all-always", "bounded"],
    )
    def test_nan_tau_rejected(self, rows):
        db = {"R": TemporalRelation("R", ("a",), rows)}
        with pytest.raises(QueryError, match="NaN"):
            shrink_database(db, float("nan"))

    def test_shrinks_both_sides(self):
        rel = TemporalRelation("R", ("a",), [((1,), (0, 10))])
        out = shrink_database({"R": rel}, 4)
        assert out["R"].rows[0][1] == Interval(2, 8)

    def test_drops_short_tuples(self):
        rel = TemporalRelation("R", ("a",), [((1,), (0, 3)), ((2,), (0, 20))])
        out = shrink_database({"R": rel}, 4)
        assert len(out["R"]) == 1

    def test_shrink_equivalence_to_filtering(self, rng):
        """The paper's central reduction: join(shrink(R, τ/2)) == σ_{dur≥τ}(join(R))."""
        query = JoinQuery.line(3)
        for trial in range(5):
            db = random_database(query, rng, n=10, domain=3, time_span=30)
            tau = [0, 2, 5, 9, 14][trial]
            via_shrink = naive_join(query, db, tau=tau)
            via_filter = naive_join(query, db, tau=0).filter_durable(tau)
            assert via_shrink.normalized() == via_filter.normalized()


class TestWidenInstants:
    def test_widening(self):
        rel = TemporalRelation("R", ("a",), [((1,), Interval.instant(10))])
        out = widen_instants(rel, tau=4)
        assert out.rows[0][1] == Interval(8, 12)

    def test_within_tau_semantics(self):
        # Timestamps within τ=4 of each other iff widened intervals meet.
        r1 = widen_instants(
            TemporalRelation("R1", ("k", "a"), [((0, 1), Interval.instant(10))]),
            tau=4,
        )
        r2_close = widen_instants(
            TemporalRelation("R2", ("k", "b"), [((0, 2), Interval.instant(13))]),
            tau=4,
        )
        r2_far = widen_instants(
            TemporalRelation("R2", ("k", "b"), [((0, 2), Interval.instant(15))]),
            tau=4,
        )
        q = JoinQuery({"R1": ("k", "a"), "R2": ("k", "b")})
        assert len(naive_join(q, {"R1": r1, "R2": r2_close})) == 1
        assert len(naive_join(q, {"R1": r1, "R2": r2_far})) == 0


class TestLeadLag:
    def test_transform_shapes(self):
        leader = TemporalRelation("L", ("a",), [((1,), (0, 5))])
        follower = TemporalRelation("F", ("a",), [((1,), (9, 12))])
        lead, follow = lead_lag_transform(leader, follower)
        assert lead.rows[0][1] == Interval(5, float("inf"))
        assert follow.rows[0][1] == Interval(float("-inf"), 9)

    @pytest.mark.parametrize(
        "f_start,tau,expect",
        [(9, 4, 1), (9, 4.0001, 0), (5, 0, 1), (4, 0, 0)],
    )
    def test_gap_semantics(self, f_start, tau, expect):
        leader = TemporalRelation("L", ("a", "u"), [((1, "l"), (0, 5))])
        follower = TemporalRelation("F", ("a", "v"), [((1, "f"), (f_start, 20))])
        lead, follow = lead_lag_transform(leader, follower)
        q = JoinQuery({"L": ("a", "u"), "F": ("a", "v")})
        out = naive_join(q, {"L": lead, "F": follow}, tau=tau)
        assert len(out) == expect


class TestRelativePattern:
    def test_feasible_shift_found(self):
        db = {
            "R": TemporalRelation("R", ("a",), [((1,), (101, 104))]),
        }
        out = relative_pattern_transform(db, {"R": Interval(0, 4)})
        # Feasible shifts Δ with [101,104]+Δ ⊆ [0,4]: Δ ∈ [-101, -100].
        assert out["R"].rows[0][1] == Interval(-101, -100)

    def test_tuple_longer_than_pattern_dropped(self):
        db = {"R": TemporalRelation("R", ("a",), [((1,), (0, 10))])}
        out = relative_pattern_transform(db, {"R": Interval(0, 4)})
        assert len(out["R"]) == 0

    def test_untouched_relations_pass_through(self):
        rel = TemporalRelation("R", ("a",), [((1,), (0, 10))])
        out = relative_pattern_transform({"R": rel}, {})
        assert out["R"] is rel

    def test_joint_feasibility(self):
        # Two relations must admit a COMMON shift.
        db = {
            "R1": TemporalRelation("R1", ("k", "a"), [((0, 1), (100, 102))]),
            "R2": TemporalRelation("R2", ("k", "b"), [((0, 2), (105, 107))]),
        }
        pattern = {"R1": Interval(0, 3), "R2": Interval(4, 8)}
        out = relative_pattern_transform(db, pattern)
        q = JoinQuery({"R1": ("k", "a"), "R2": ("k", "b")})
        results = naive_join(q, out)
        assert len(results) == 1  # shift −100 places both inside the pattern
        # Shift interval is the intersection of the two feasibility windows.
        assert results[0][1] == Interval(-100, -99)


class TestIntervalSetModel:
    def test_explode_counts_episodes(self):
        rows = [((1, 2), IntervalSet([(0, 3), (7, 9)])), ((1, 3), IntervalSet([(1, 2)]))]
        rel = explode_interval_sets("R", ("u", "v"), rows)
        assert len(rel) == 3
        assert rel.attrs == ("u", "v", "__episode__")

    def test_explode_distinct_tuples(self):
        rows = [((1, 2), IntervalSet([(0, 3), (7, 9)]))]
        rel = explode_interval_sets("R", ("u", "v"), rows)
        values = [v for v, _ in rel]
        assert len(set(values)) == 2

    def test_coalesce_results_merges_episodes(self):
        rs = JoinResultSet(("a", "e"))
        rs.append((1, 0), Interval(0, 3))
        rs.append((1, 1), Interval(2, 8))
        rs.append((2, 0), Interval(0, 1))
        out = coalesce_results(rs, hidden_attrs=("e",))
        assert out.attrs == ("a",)
        rows = out.normalized()
        assert rows == [((1,), Interval(0, 8)), ((2,), Interval(0, 1))]

    def test_coalesce_keeps_disjoint_episodes(self):
        rs = JoinResultSet(("a", "e"))
        rs.append((1, 0), Interval(0, 3))
        rs.append((1, 1), Interval(5, 8))
        out = coalesce_results(rs, hidden_attrs=("e",))
        assert len(out) == 2


class TestDurabilityHelper:
    def test_nonempty(self):
        assert durability([Interval(0, 10), Interval(3, 20)]) == 7

    def test_empty_is_neg_inf(self):
        assert durability([Interval(0, 1), Interval(5, 6)]) == float("-inf")

    def test_empty_list_is_infinite(self):
        assert durability([]) == float("inf")
