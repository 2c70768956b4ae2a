"""Kernel ingest: interning, ranking and the event sort against references.

``build_columns`` interns one attribute column at a time and sorts the
event codes as one numpy array. These tests pin both to plain per-row
references written here: the same codes, domains (first-appearance
order, equal values of different types sharing one slot), row order,
event order and emission intervals as a row-by-row loop and a Python
``sorted()`` would give. The temporal semijoin pass of query reads is
held to a plain-loop reference pass the same way.
"""

import pickle
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import InvariantError
from repro.core.interval import Interval
from repro.core.query import JoinQuery
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


# ----------------------------------------------------------------------
# The temporal semijoin pass of query reads, against a plain loop.
# ----------------------------------------------------------------------
def reference_semijoin(query, columns):
    """Row ids of ``columns`` the pairwise pass keeps, by a plain loop."""
    rows = {}
    for rid in range(columns.n_rows):
        rows.setdefault(columns.row_relation[rid], []).append(rid)
    alive = set(range(columns.n_rows))

    def value(rid, attr):
        attrs = query.edge(columns.row_relation[rid])
        return columns.row_values[rid][attrs.index(attr)]

    changed = True
    while changed:
        changed = False
        for r in query.edge_names:
            for s in query.edge_names:
                common = [a for a in query.edge(r) if a in query.edge(s)]
                if r == s or not common:
                    continue
                for rid in rows.get(r, []):
                    if rid not in alive:
                        continue
                    met = any(
                        sid in alive
                        and all(value(rid, a) == value(sid, a) for a in common)
                        and columns.row_lo[sid] <= columns.row_hi[rid]
                        and columns.row_hi[sid] >= columns.row_lo[rid]
                        for sid in rows.get(s, [])
                    )
                    if not met:
                        alive.discard(rid)
                        changed = True
    return sorted(alive)


def typed_intervals(intervals):
    return [(repr(iv.lo), repr(iv.hi)) for iv in intervals]


def events(columns):
    """The event stream as ``(time, kind, row)`` with the times themselves."""
    n = columns.n_rows
    return [
        (columns.rank_times[code // (2 * n)], (code // n) & 1, code % n)
        for code in columns.event_codes
    ]


def assert_reduced(reduced, full, kept):
    """``reduced`` holds exactly rows ``kept`` of ``full``, field by field."""
    assert reduced.row_values == [full.row_values[i] for i in kept]
    assert reduced.row_relation == [full.row_relation[i] for i in kept]
    assert reduced.domains == full.domains
    assert typed_intervals(reduced.intervals()) == typed_intervals(
        [full.intervals()[i] for i in kept]
    )
    local = {rid: i for i, rid in enumerate(kept)}
    assert events(reduced) == [
        (t, kind, local[rid]) for t, kind, rid in events(full) if rid in local
    ]


def decoded(query, columns):
    return {
        (name, tuple(columns.domains[a][c] for a, c in zip(query.edge(name), values)))
        for name, values in zip(columns.row_relation, columns.row_values)
    }


def assert_pass_matches_reference(query, database, tau=0):
    """Cold and prepared reduced reads equal the loop pass over unreduced reads.

    Returns how many rows the pass dropped.
    """
    from repro.kernels import prepare
    from repro.kernels.columns import (
        build_shrunk_columns,
        query_columns,
        semijoin_columns,
    )

    used = {name: database[name] for name in database if name in query.edge_names}
    full = build_shrunk_columns(used, tau)
    kept = reference_semijoin(query, full)
    cold = query_columns(query, database, tau)
    assert_reduced(cold, full, kept)
    # A prepared τ-view keeps the unshrunk database's codes and domains.
    view = prepare(used).columns_for(query, tau)
    warm = semijoin_columns(query, view)
    assert_reduced(warm, view, reference_semijoin(query, view))
    assert decoded(query, warm) == decoded(query, cold)
    return full.n_rows - len(kept)


class TestSemijoinPass:
    """Edge cases of the pass; each also checks the loop reference."""

    @staticmethod
    def star2(r1, r2):
        from repro.core.query import JoinQuery

        query = JoinQuery.star(2)
        return query, make_database({
            "R1": (("x1", "y"), r1),
            "R2": (("x2", "y"), r2),
        })

    @staticmethod
    def join(query, database, tau=0):
        from repro import ExecutionStats, temporal_join
        from repro.algorithms.naive import naive_join

        stats = ExecutionStats()
        got = temporal_join(query, database, tau, algorithm="timefirst",
                            engine="kernel", stats=stats)
        assert got.normalized() == naive_join(query, database, tau=tau).normalized()
        return got, stats

    def test_touching_closed_intervals_survive(self):
        query, db = self.star2(
            [(("a", 1), (0, 5)), (("b", 1), (6, 9))],
            [(("c", 1), (5, 5)), (("d", 2), (0, 9))],
        )
        assert assert_pass_matches_reference(query, db) == 2
        got, stats = self.join(query, db)
        row = dict(zip(query.attrs, next(iter(got))[0]))
        assert row == {"x1": "a", "x2": "c", "y": 1}
        assert [(iv.lo, iv.hi) for _, iv in got] == [(5, 5)]
        assert stats["kernel.semijoin_dropped"] == 2
        assert stats["kernel.rows"] == 2

    def test_zero_length_and_infinite_endpoints(self):
        query, db = self.star2(
            [(("a", 1), (3, 3)), (("b", 2), (3, 3)), (("c", 3), (-_INF, _INF))],
            [(("d", 1), (-_INF, _INF)), (("e", 2), (4, _INF)), (("f", 3), (_INF, _INF))],
        )
        # (b, 2) ends before (e, 2) starts; (c, 3) meets (f, 3) at +inf.
        assert assert_pass_matches_reference(query, db) == 2
        got, _ = self.join(query, db)
        assert len(got) == 2

    def test_duplicate_endpoints(self):
        query, db = self.star2(
            [((f"a{i}", i % 2), (2, 4)) for i in range(6)],
            [((f"b{i}", i % 3), (4, 7)) for i in range(6)],
        )
        # Key 2 occurs only in R2.
        assert assert_pass_matches_reference(query, db) == 2
        self.join(query, db)

    def test_empty_relation_drops_every_row(self):
        query, db = self.star2([(("a", 1), (0, 5)), (("b", 2), (1, 2))], [])
        assert assert_pass_matches_reference(query, db) == 2
        got, stats = self.join(query, db)
        assert len(got) == 0
        assert stats["kernel.rows"] == 0
        assert stats.get("sweep.events") == 0

    def test_tau_that_empties_one_relation(self):
        query, db = self.star2(
            [(("a", 1), (0, 50)), (("b", 2), (10, 60))],
            [(("c", 1), (0, 3)), (("d", 2), (20, 22))],
        )
        assert assert_pass_matches_reference(query, db, 10) == 2
        got, stats = self.join(query, db, 10)
        assert len(got) == 0
        assert stats["kernel.shrink_dropped"] == 2
        assert stats["kernel.semijoin_dropped"] == 2

    @pytest.mark.parametrize("tau", [0, 1])
    def test_mixed_type_values_keep_the_unreduced_representatives(self, tau):
        from repro.kernels.columns import build_shrunk_columns
        from repro.kernels.engine import sweep_columns

        # The dangling rows come first: 1 (not the kept row's 1.0) is
        # x1's representative and True is y's; endpoints mix 4 and 4.0.
        query, db = self.star2(
            [((1, True), (0, 2)), ((1.0, 2), (4.0, 9)), ((2, 1.0), (10, 12.0))],
            [((True, 1), (4, 20)), ((5, 2.0), (5, 6)), ((7, 3), (0, 1))],
        )
        assert assert_pass_matches_reference(query, db, tau) == 2
        got, _ = self.join(query, db, tau)
        want = sweep_columns(query, build_shrunk_columns(db, tau), tau)
        typed = lambda rows: [  # noqa: E731
            (tuple(map(repr, v)), repr(iv.lo), repr(iv.hi)) for v, iv in rows
        ]
        assert typed(got) == typed(want)
        x1, y = query.attrs.index("x1"), query.attrs.index("y")
        assert sorted(repr(v[x1]) for v, _ in got) == ["1", "2"]
        assert {repr(v[y]) for v, _ in got} == {"True", "2"}


    def test_prepared_reads_add_no_sort(self):
        from repro import ExecutionStats, prepare, temporal_join

        query, db = self.star2(
            [(("a", 1), (0, 5)), (("b", 2), (1, 2))],
            [(("c", 1), (3, 4)), (("d", 3), (0, 9))],
        )
        stats = ExecutionStats()
        artifact = prepare(db, stats=stats)
        for _ in range(2):
            got = temporal_join(query, db, prepared=artifact, stats=stats)
            assert len(got) == 1
        assert stats["kernel.sort_calls"] == 1
        assert stats["kernel.semijoin_dropped"] == 4
        assert "phase.kernel.semijoin" in stats.timers

    def test_a_view_that_keeps_every_row_is_returned_itself(self):
        from repro.kernels import prepare
        from repro.kernels.columns import semijoin_columns

        query, db = self.star2([(("a", 1), (0, 5))], [(("c", 1), (3, 4))])
        view = prepare(db).columns_for(query, 0)
        assert semijoin_columns(query, view) is view

    @pytest.mark.parametrize("seed", range(30))
    def test_random_instances(self, seed):
        from repro.core.query import JoinQuery
        from repro.testing import random_instance

        rng = random.Random(seed)
        query = rng.choice([
            JoinQuery.star(3),
            JoinQuery.line(3),
            JoinQuery.triangle(),
            JoinQuery({"R1": ("a", "b", "c"), "R2": ("a", "b"), "R3": ("a", "d")}),
        ])
        db = random_instance(query, rng, n=10, domain=3, time_span=30, max_duration=6)
        assert_pass_matches_reference(query, db, rng.choice([0, 0, 2, 5]))


#: REPORT enumerates insertion-ordered leaf buckets on these shapes, so
#: the reduced read emits the unreduced read's rows in its order.
ORDER_STABLE = (
    JoinQuery.star(2),
    JoinQuery.star(3),
    JoinQuery({"R0": ("y",), "R1": ("x1", "y"), "R2": ("x2", "y")}),
)
#: A case-3 member set, GHD key sets and the r-hierarchical reduction:
#: the same rows, in an order that may follow hash-table history.
ANY_ORDER = (
    JoinQuery.line(3),
    JoinQuery.triangle(),
    JoinQuery({"R1": ("a", "b", "c"), "R2": ("a", "b"), "R3": ("a", "d")}),
    JoinQuery({"Big": ("a", "b", "c"), "Left": ("a", "b"), "Right": ("b", "c")}),
)


@st.composite
def _semijoin_instance(draw):
    """Values and endpoints that compare equal across types."""
    query = draw(st.sampled_from(ORDER_STABLE + ANY_ORDER))
    value = st.sampled_from([0, 1, 1.0, True, 2, 2.0])
    start = st.sampled_from([-2, 0, 1, 1.0, 2, 3, 3.0, 5, -_INF])
    length = st.sampled_from([0, 0, 1, 2, 2.0, 4, _INF])
    database = {}
    for name in query.edge_names:
        attrs = query.edge(name)
        rows = {}
        for values, lo, n in draw(st.lists(
            st.tuples(st.tuples(*[value] * len(attrs)), start, length), max_size=7
        )):
            rows.setdefault(values, Interval(lo, n if lo == -_INF else lo + n))
        database[name] = TemporalRelation(name, attrs, list(rows.items()))
    return query, database


def _typed(rows):
    return [(tuple(map(repr, values)), repr(iv.lo), repr(iv.hi)) for values, iv in rows]


@settings(max_examples=150, deadline=None)
@given(instance=_semijoin_instance(), tau=st.sampled_from([0, 0, 1, 3]))
def test_semijoin_pass_is_exact_and_keeps_rows_and_order(instance, tau):
    """The pass drops no constituent of a result, and the reduced read
    emits the unreduced read's rows with its value and endpoint types
    (in its order where REPORT's enumeration does not follow history)."""
    from repro import prepare, temporal_join
    from repro.algorithms.naive import naive_join
    from repro.algorithms.timefirst import needs_reduction, prepare_run
    from repro.kernels.columns import build_shrunk_columns
    from repro.kernels.engine import kernel_columns, sweep_columns

    query, database = instance
    order = list if query in ORDER_STABLE else sorted
    want = naive_join(query, database, tau=tau)
    got = temporal_join(query, database, tau, algorithm="timefirst", engine="kernel")
    assert got.same_results(want)
    if needs_reduction(query):
        run_query, run_db = prepare_run(query, database, tau)
        unreduced = sweep_columns(run_query, build_columns(run_db), tau)
    else:
        unreduced = sweep_columns(query, build_shrunk_columns(database, tau), tau)
    assert order(_typed(got)) == order(_typed(unreduced))
    if needs_reduction(query):
        return
    _, columns = kernel_columns(query, database, tau)
    kept = {
        (name, tuple(columns.domains[a][c] for a, c in zip(query.edge(name), values)))
        for name, values in zip(columns.row_relation, columns.row_values)
    }
    for values, _ in want:
        row = dict(zip(want.attrs, values))
        for name in query.edge_names:
            assert (name, tuple(row[a] for a in query.edge(name))) in kept
    # Likewise for a prepared read against its unreduced τ-view sweep.
    artifact = prepare(database)
    warm = temporal_join(query, database, tau, prepared=artifact, algorithm="timefirst")
    view = sweep_columns(query, artifact.columns_for(query, tau), tau)
    assert order(_typed(warm)) == order(_typed(view))
