"""Kernel ingest: interning, ranking and the event sort against references.

``build_columns`` interns one attribute column at a time and sorts the
event codes as one numpy array. These tests pin both to plain per-row
references written here: the same codes, domains (first-appearance
order, equal values of different types sharing one slot), row order,
event order and emission intervals as a row-by-row loop and a Python
``sorted()`` would give.
"""

import pickle
import random
from array import array

import pytest

from repro.core.errors import InvariantError
from repro.core.interval import Interval
from repro.core.relation import TemporalRelation
from repro.kernels.columns import _sorted_event_codes, build_columns

_INF = float("inf")


def reference_ingest(database):
    """Row-by-row interning, ranking and event sort (the plain loop)."""
    tables, domains = {}, {}
    row_relation, row_values, los, his = [], [], [], []
    for name in database:
        relation = database[name]
        for attr in relation.attrs:
            tables.setdefault(attr, {})
            domains.setdefault(attr, [])
        for values, interval in relation:
            codes = []
            for attr, value in zip(relation.attrs, values):
                table, domain = tables[attr], domains[attr]
                if value not in table:
                    table[value] = len(domain)
                    domain.append(value)
                codes.append(table[value])
            row_relation.append(name)
            row_values.append(tuple(codes))
            los.append(interval.lo)
            his.append(interval.hi)
    rank_of = {t: rank for rank, t in enumerate(sorted(set(los) | set(his)))}
    n = len(row_values)
    event_codes = sorted(
        [rank_of[lo] * 2 * n + rid for rid, lo in enumerate(los)]
        + [(rank_of[hi] * 2 + 1) * n + rid for rid, hi in enumerate(his)]
    )
    return domains, row_values, row_relation, event_codes


def assert_matches_reference(database):
    columns = build_columns(database)
    domains, row_values, row_relation, event_codes = reference_ingest(database)
    assert columns.domains == domains
    # Same representative object per slot, not merely an equal one.
    for attr, domain in domains.items():
        assert [type(v) for v in columns.domains[attr]] == [type(v) for v in domain]
    assert columns.row_values == row_values
    assert columns.row_relation == row_relation
    assert columns.event_codes == event_codes
    assert columns.n_rows == len(row_values)
    assert columns.relations == tuple(database)
    return columns


def make_database(spec):
    """``{name: (attrs, rows)}`` → ``{name: TemporalRelation}``, in order."""
    return {
        name: TemporalRelation(name, attrs, rows)
        for name, (attrs, rows) in spec.items()
    }


class TestInterningMatchesPerRowLoop:
    def test_attributes_shared_across_relations(self):
        db = make_database({
            "R": (("a", "b"), [(("p", 1), (0, 4)), (("q", 2), (1, 3)),
                               (("p", 3), (2, 9))]),
            "S": (("b", "c"), [((3, "x"), (1, 5)), ((4, "y"), (0, 2)),
                               ((1, "x"), (3, 3))]),
            "T": (("c", "a"), [(("z", "q"), (0, 1)), (("x", "r"), (2, 6))]),
        })
        columns = assert_matches_reference(db)
        assert columns.domains["b"] == [1, 2, 3, 4]
        assert columns.domains["c"] == ["x", "y", "z"]
        assert columns.domains["a"] == ["p", "q", "r"]

    def test_equal_values_of_different_types_share_one_slot(self):
        db = make_database({
            "R": (("a", "b"), [((1, "u"), (0, 4)), ((2.0, "v"), (1, 5))]),
            "S": (("a", "c"), [((1.0, 0), (0, 2)), ((True, 1), (1, 3)),
                               ((2, 2), (2, 4)), ((False, 3), (0, 1))]),
        })
        columns = assert_matches_reference(db)
        domain = columns.domains["a"]
        assert domain == [1, 2.0, False]
        assert [type(v) for v in domain] == [int, float, bool]
        # 1, 1.0 and True share slot 0; 2.0 and 2 share slot 1.
        assert [values[0] for values in columns.row_values] == [0, 1, 0, 0, 1, 2]

    def test_empty_relation_registers_its_domains(self):
        db = make_database({
            "R": (("a", "b"), [(("p", 1), (0, 4))]),
            "E": (("b", "e"), []),
            "S": (("a", "c"), [(("p", 7), (1, 2))]),
        })
        columns = assert_matches_reference(db)
        assert columns.domains["e"] == []
        assert set(columns.domains) == {"a", "b", "c", "e"}
        assert columns.relations == ("R", "E", "S")

    def test_all_empty_database(self):
        db = make_database({"R": (("a", "b"), []), "S": (("b", "c"), [])})
        columns = assert_matches_reference(db)
        assert columns.domains == {"a": [], "b": [], "c": []}
        assert columns.n_rows == 0
        assert columns.event_codes == []
        assert columns.intervals() == []

    def test_no_relations(self):
        columns = assert_matches_reference({})
        assert columns.domains == {} and columns.rank_times == []

    def test_infinite_duplicate_touching_and_zero_length_endpoints(self):
        db = make_database({
            "R": (("a",), [((0,), (-_INF, 3)), ((1,), (3, 3)), ((2,), (3, 8)),
                           ((3,), Interval.always()), ((4,), (0, 3)),
                           ((5,), (8, _INF))]),
            "S": (("a",), [((0,), (3, 3)), ((6,), (-_INF, -_INF)),
                           ((7,), (_INF, _INF)), ((8,), (0, 3))]),
        })
        columns = assert_matches_reference(db)
        assert columns.rank_times == [-_INF, 0, 3, 8, _INF]

    def test_random_databases(self, rng):
        for _ in range(30):
            db = {}
            for name, attrs in (("R", ("a", "b")), ("S", ("b", "c")),
                                ("T", ("c", "a", "d"))):
                rows, seen = [], set()
                for _ in range(rng.randrange(0, 12)):
                    values = tuple(
                        rng.choice((rng.randrange(4), float(rng.randrange(4)), "v"))
                        for _ in attrs
                    )
                    if values in seen:
                        continue
                    seen.add(values)
                    lo = rng.choice((-_INF, rng.randrange(-3, 6)))
                    hi = rng.choice((_INF, 6, rng.randrange(6, 9)))
                    rows.append((values, (lo, hi)))
                db[name] = TemporalRelation(name, attrs, rows)
            assert_matches_reference(db)


class TestIngestIntervals:
    def make_db(self):
        return make_database({
            "R": (("a", "b"), [((1, 2), (-_INF, 5)), ((3, 2), (0, _INF)),
                               ((4, 4), (5, 5))]),
            "S": (("b", "c"), [((2, 7), Interval.always()), ((2, 8), (5, 9.5))]),
        })

    def test_intervals_equal_rank_space_reconstruction(self):
        columns = build_columns(self.make_db())
        rank_times = columns.rank_times
        rebuilt = [
            Interval(rank_times[lo], rank_times[hi])
            for lo, hi in zip(columns.row_lo, columns.row_hi)
        ]
        assert columns.intervals() == rebuilt

    def test_intervals_are_the_ingest_rows_own(self):
        db = self.make_db()
        columns = build_columns(db)
        ingest = [iv for name in db for _, iv in db[name]]
        assert all(a is b for a, b in zip(columns.intervals(), ingest))
        assert len(columns.intervals()) == len(ingest)

    def test_unpickled_columns_rebuild_equal_intervals(self):
        columns = build_columns(self.make_db())
        clone = pickle.loads(pickle.dumps(columns))
        assert clone._interval_cache is None
        assert clone.intervals() == columns.intervals()
        assert columns.subset([0, 2, 4]).intervals() == [
            columns.intervals()[rid] for rid in (0, 2, 4)
        ]


class TestEventCodeSort:
    def test_numpy_sort_equals_python_sorted(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(1, 40)
            max_rank = rng.randrange(0, 6)  # few ranks: many ties
            lo = [rng.randrange(max_rank + 1) for _ in range(n)]
            hi = [rng.choice((a, rng.randrange(a, max_rank + 1))) for a in lo]
            expected = sorted(
                [lo[r] * 2 * n + r for r in range(n)]
                + [(hi[r] * 2 + 1) * n + r for r in range(n)]
            )
            got = _sorted_event_codes(array("q", lo), array("q", hi))
            assert got == expected
            assert all(type(code) is int for code in got)

    def test_empty_input(self):
        assert _sorted_event_codes(array("q"), array("q")) == []

    def test_largest_codes_that_fit_are_exact(self):
        # (2 * max_rank + 2) * n == 2**62: every code fits in int64.
        rank = 2**60 - 1
        got = _sorted_event_codes(array("q", [0, rank]), array("q", [rank, rank]))
        n = 2
        assert got == sorted([0, rank * 2 * n + 1, (rank * 2 + 1) * n,
                              (rank * 2 + 1) * n + 1])

    def test_int64_overflow_raises(self):
        with pytest.raises(InvariantError, match="overflow int64"):
            _sorted_event_codes(array("q", [0]), array("q", [2**62]))
        with pytest.raises(InvariantError, match="overflow int64"):
            _sorted_event_codes(array("q", [2**40, 0, 0]), array("q", [2**61, 1, 1]))
