"""Edge-case and error-path coverage across the library surface."""

import pytest

from repro.core.errors import (
    IntervalError,
    PlanError,
    QueryError,
    ReproError,
    SchemaError,
)
from repro.core.interval import Interval
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc", [SchemaError, QueryError, PlanError, IntervalError]
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")


class TestDuplicateTupleGuard:
    def test_hierarchical_sweep_rejects_duplicates(self):
        from repro.algorithms.registry import temporal_join

        q = JoinQuery.star(2)
        dup = TemporalRelation(
            "R1", ("x1", "y"),
            [((1, "h"), (0, 5)), ((1, "h"), (1, 9))],
            check_distinct=False,
        )
        db = {
            "R1": dup,
            "R2": TemporalRelation("R2", ("x2", "y"), [((2, "h"), (0, 9))]),
        }
        with pytest.raises(QueryError):
            temporal_join(q, db, algorithm="timefirst")


class TestSingleRelationQueries:
    """m = 1 degenerates every algorithm to a scan — all must cope."""

    @pytest.mark.parametrize(
        "algorithm", ["timefirst", "baseline", "hybrid", "joinfirst", "naive", "auto"]
    )
    def test_single_relation(self, algorithm):
        from repro.algorithms.registry import temporal_join

        q = JoinQuery({"R": ("a", "b")})
        db = {
            "R": TemporalRelation(
                "R", ("a", "b"), [((1, 2), (0, 5)), ((3, 4), (2, 9))]
            )
        }
        out = temporal_join(q, db, algorithm=algorithm)
        assert sorted(out.values_only()) == [(1, 2), (3, 4)]

    def test_single_relation_durable(self):
        from repro.algorithms.registry import temporal_join

        q = JoinQuery({"R": ("a",)})
        db = {
            "R": TemporalRelation("R", ("a",), [((1,), (0, 3)), ((2,), (0, 9))])
        }
        out = temporal_join(q, db, tau=5)
        assert out.values_only() == [(2,)]
        assert out.rows[0][1] == Interval(0, 9)


class TestUnaryEverything:
    """All-unary queries (set intersections with intervals)."""

    @pytest.mark.parametrize(
        "algorithm", ["timefirst", "baseline", "hybrid", "joinfirst"]
    )
    def test_three_unary_relations(self, algorithm):
        from repro.algorithms.naive import naive_join
        from repro.algorithms.registry import temporal_join

        q = JoinQuery({"R1": ("a",), "R2": ("a",), "R3": ("a",)})
        db = {
            "R1": TemporalRelation("R1", ("a",), [((1,), (0, 9)), ((2,), (0, 9))]),
            "R2": TemporalRelation("R2", ("a",), [((1,), (3, 20)), ((3,), (0, 9))]),
            "R3": TemporalRelation("R3", ("a",), [((1,), (5, 7))]),
        }
        got = temporal_join(q, db, algorithm=algorithm)
        assert got.normalized() == naive_join(q, db).normalized()
        assert got.rows == [((1,), Interval(5, 7))]


class TestHarnessValidation:
    def test_compare_flags_result_mismatch(self, monkeypatch, rng):
        from conftest import random_database
        from repro.algorithms import registry
        from repro.bench.harness import compare_algorithms
        from repro.core.result import JoinResultSet

        q = JoinQuery.line(2)
        db = random_database(q, rng, n=10, domain=2, time_span=10)

        def broken(query, database, tau=0, **kwargs):
            out = JoinResultSet(query.attrs)
            out.append(tuple("?" for _ in query.attrs), Interval(0, 1))
            return out

        registry._ensure_loaded()
        monkeypatch.setitem(registry._REGISTRY, "broken", broken)
        ms = compare_algorithms(
            ["timefirst", "broken"], q, db, measure_memory=False, validate=True
        )
        by = {m.algorithm: m for m in ms}
        assert by["timefirst"].ok
        assert not by["broken"].ok
        assert "MISMATCH" in by["broken"].note

    def test_measure_repeat_takes_min(self, rng):
        from conftest import random_database
        from repro.bench.harness import measure

        q = JoinQuery.line(2)
        db = random_database(q, rng, n=10, domain=3)
        m1 = measure("timefirst", q, db, measure_memory=False, repeat=1)
        m3 = measure("timefirst", q, db, measure_memory=False, repeat=3)
        assert m3.seconds <= m1.seconds * 3  # sanity; min-of-3 is stable
