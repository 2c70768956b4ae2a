"""Tests for repro.core.relation.TemporalRelation."""

import pytest

from repro.core.errors import IntervalError, SchemaError
from repro.core.interval import Interval
from repro.core.relation import TemporalRelation, relation_from_pairs


def small_rel() -> TemporalRelation:
    return TemporalRelation(
        "R",
        ("a", "b"),
        [
            ((1, "x"), (0, 10)),
            ((1, "y"), (5, 15)),
            ((2, "x"), (20, 30)),
        ],
    )


class TestConstruction:
    def test_rows_and_len(self):
        rel = small_rel()
        assert len(rel) == 3
        assert rel.rows[0] == ((1, "x"), Interval(0, 10))

    def test_interval_coercion(self):
        rel = TemporalRelation("R", ("a",), [((1,), 5)])
        assert rel.rows[0][1] == Interval(5, 5)

    def test_empty_relation_is_falsy(self):
        assert not TemporalRelation("R", ("a",))

    def test_duplicate_attrs_rejected(self):
        with pytest.raises(SchemaError):
            TemporalRelation("R", ("a", "a"))

    def test_no_attrs_rejected(self):
        with pytest.raises(SchemaError):
            TemporalRelation("R", ())

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            TemporalRelation("R", ("a", "b"), [((1,), (0, 1))])

    def test_duplicate_tuples_rejected(self):
        with pytest.raises(SchemaError):
            TemporalRelation(
                "R", ("a",), [((1,), (0, 1)), ((1,), (2, 3))]
            )

    def test_duplicates_allowed_when_unchecked(self):
        rel = TemporalRelation(
            "R", ("a",), [((1,), (0, 1)), ((1,), (2, 3))], check_distinct=False
        )
        assert len(rel) == 2

    def test_relation_from_pairs(self):
        rel = relation_from_pairs("R", ("a",), [((1,), (0, 2))])
        assert len(rel) == 1


class TestPositions:
    def test_position(self):
        rel = small_rel()
        assert rel.position("a") == 0 and rel.position("b") == 1

    def test_positions_ordered(self):
        assert small_rel().positions(("b", "a")) == (1, 0)

    def test_unknown_attr(self):
        with pytest.raises(SchemaError):
            small_rel().position("zzz")


class TestRelationalOps:
    def test_project_values(self):
        rel = small_rel()
        assert rel.project_values((1, "x"), ("b",)) == ("x",)

    def test_select(self):
        sel = small_rel().select(lambda v, iv: v[0] == 1)
        assert len(sel) == 2

    def test_select_on_interval(self):
        sel = small_rel().select(lambda v, iv: iv.duration >= 10)
        assert all(iv.duration >= 10 for _, iv in sel)

    def test_group_by(self):
        groups = small_rel().group_by(("a",))
        assert set(groups) == {(1,), (2,)}
        assert len(groups[(1,)]) == 2

    def test_group_by_empty_key_single_group(self):
        groups = small_rel().group_by(())
        assert set(groups) == {()}
        assert len(groups[()]) == 3

    def test_semijoin_keys(self):
        out = small_rel().semijoin_keys(("a",), [(2,)])
        assert [v for v, _ in out] == [(2, "x")]

    def test_semijoin_keys_empty(self):
        assert not small_rel().semijoin_keys(("a",), [])

    def test_shrink(self):
        out = small_rel().shrink(4)
        lookup = {v: iv for v, iv in out}
        assert lookup[(1, "x")] == Interval(4, 6)

    def test_shrink_drops_vanished(self):
        out = small_rel().shrink(6)
        assert (1, "x") not in {v for v, _ in out}  # duration 10 < 12

    @pytest.mark.parametrize("amount", [-3, 0, 2.5, 4, 6, float("inf")])
    def test_shrink_matches_per_interval_shrink(self, amount):
        inf = float("inf")
        rel = TemporalRelation(
            "R",
            ("a",),
            [((0,), (0, 10)), ((1,), (-inf, 3)), ((2,), (7, inf)),
             ((3,), Interval.always()), ((4,), (5, 5)), ((5,), (2, 9))],
        )
        out = rel.shrink(amount)
        expected = [
            (values, iv.shrink(amount)) for values, iv in rel
            if iv.shrink(amount) is not None
        ]
        assert out.rows == expected
        assert out.name == rel.name and out.attrs == rel.attrs

    @pytest.mark.parametrize(
        "rows",
        [[], [((1,), Interval.always()), ((2,), Interval.always())],
         [((1,), (0, 10)), ((2,), (float("-inf"), 4))]],
        ids=["empty", "all-always", "bounded"],
    )
    def test_shrink_nan_amount_rejected(self, rows):
        rel = TemporalRelation("R", ("a",), rows)
        with pytest.raises(IntervalError, match="NaN"):
            rel.shrink(float("nan"))

    def test_map_intervals(self):
        out = small_rel().map_intervals(lambda iv: iv.shift(100))
        assert out.rows[0][1] == Interval(100, 110)

    def test_map_intervals_drops_none(self):
        out = small_rel().map_intervals(
            lambda iv: None if iv.lo == 0 else iv
        )
        assert len(out) == 2

    def test_rename(self):
        out = small_rel().rename({"a": "x1", "b": "x2"})
        assert out.attrs == ("x1", "x2")
        assert len(out) == 3

    def test_rename_partial(self):
        out = small_rel().rename({"a": "z"})
        assert out.attrs == ("z", "b")

    def test_with_name(self):
        out = small_rel().with_name("S")
        assert out.name == "S" and len(out) == 3


class TestStatistics:
    def test_key_cardinality(self):
        rel = small_rel()
        assert rel.key_cardinality(("a",)) == 2
        assert rel.key_cardinality(("b",)) == 2
        assert rel.key_cardinality(("a", "b")) == 3

    def test_endpoints(self):
        pts = sorted(small_rel().endpoints())
        assert pts == [0, 5, 10, 15, 20, 30]
