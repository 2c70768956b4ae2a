"""Tests for the prepared-columns multi-query engine (kernels.prepared)."""

import pickle
import random

import pytest

from repro import prepare, run_batch, temporal_join
from repro.core.errors import InvariantError, QueryError
from repro.core.interval import Interval
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.kernels.prepared import PreparedDatabase, needs_reduction
from repro.obs import ExecutionStats
from repro.testing import random_instance
from repro.workloads.synthetic import SyntheticConfig, generate

CONFIG = SyntheticConfig(n_dangling=25, n_results=8)


@pytest.fixture
def line3():
    query = JoinQuery.line(3)
    return query, generate(query, CONFIG)


@pytest.fixture
def star3():
    query = JoinQuery.star(3)
    return query, generate(query, CONFIG)


def _object_result(query, db, tau=0, algorithm="timefirst"):
    return temporal_join(
        query, db, tau=tau, algorithm=algorithm, engine="object"
    ).normalized()


class TestPreparedSingleQuery:
    @pytest.mark.parametrize("tau", [0, 3])
    def test_matches_object_path(self, line3, star3, tau):
        for query, db in (line3, star3):
            artifact = prepare(db)
            got = temporal_join(
                query, db, tau=tau, algorithm="timefirst", prepared=artifact
            )
            assert got.normalized() == _object_result(query, db, tau=tau)

    def test_skips_ingest_on_reuse(self, line3):
        query, db = line3
        prep_stats = ExecutionStats()
        artifact = prepare(db, stats=prep_stats)
        assert prep_stats["kernel.sort_calls"] == 1

        stats = ExecutionStats()
        temporal_join(
            query, db, algorithm="timefirst", prepared=artifact, stats=stats
        )
        # τ=0 reuse: no interning, ranking or sorting on the call path.
        assert "kernel.sort_calls" not in stats
        assert stats["prepared.reuse"] == 1

    def test_tau_view_cached_across_calls(self, line3):
        query, db = line3
        artifact = prepare(db)
        stats = ExecutionStats()
        for _ in range(3):
            temporal_join(
                query, db, tau=3, algorithm="timefirst", prepared=artifact,
                stats=stats,
            )
        # One shrink (re-rank + re-sort) total, then cache hits.
        assert stats["kernel.sort_calls"] == 1
        assert stats["prepared.view_cache_misses"] == 1
        assert stats["prepared.view_cache_hits"] == 2

    def test_auto_algorithm_uses_plan_cache(self, star3):
        query, db = star3
        artifact = prepare(db)
        want = temporal_join(query, db, algorithm="auto").normalized()
        stats = ExecutionStats()
        for _ in range(2):
            got = temporal_join(
                query, db, algorithm="auto", prepared=artifact, stats=stats
            )
            assert got.normalized() == want
        assert stats["prepared.plan_cache_misses"] == 1
        assert stats["prepared.plan_cache_hits"] == 1

    @pytest.mark.parametrize("tau", [0, 3])
    def test_parallel_inline_matches(self, line3, tau):
        query, db = line3
        artifact = prepare(db)
        got = temporal_join(
            query, db, tau=tau, algorithm="timefirst", prepared=artifact,
            workers=3, parallel_mode="inline",
        )
        assert got.normalized() == _object_result(query, db, tau=tau)

    def test_parallel_reuses_artifact(self, line3):
        query, db = line3
        artifact = prepare(db)
        stats = ExecutionStats()
        temporal_join(
            query, db, algorithm="timefirst", prepared=artifact,
            workers=3, parallel_mode="inline", stats=stats,
        )
        assert stats["prepared.reuse"] == 1
        assert "kernel.sort_calls" not in stats

    def test_object_engine_ignores_artifact(self, line3):
        query, db = line3
        artifact = prepare(db)
        got = temporal_join(
            query, db, algorithm="timefirst", engine="object",
            prepared=artifact,
        )
        assert got.normalized() == _object_result(query, db)

    def test_explain_analyze_reports_prepared_counters(self, line3):
        from repro import explain_analyze

        query, db = line3
        artifact = prepare(db)
        report = explain_analyze(
            query, db, algorithm="timefirst", prepared=artifact
        )
        assert report.engine == "kernel"
        assert report.stats["prepared.reuse"] == 1
        assert "prepared.reuse" in report.render()


class TestValidation:
    def test_equal_content_different_objects_pass(self, line3):
        query, db = line3
        artifact = prepare(db)
        clone = {
            name: TemporalRelation(name, rel.attrs, list(rel))
            for name, rel in db.items()
        }
        got = temporal_join(
            query, clone, algorithm="timefirst", prepared=artifact
        )
        assert got.normalized() == _object_result(query, db)

    def test_relation_set_mismatch(self, line3):
        _, db = line3
        artifact = prepare(db)
        smaller = {k: v for k, v in db.items() if k != "R3"}
        with pytest.raises(QueryError, match="does not match"):
            artifact.validate_against(smaller)

    def test_changed_rows_detected(self, line3):
        query, db = line3
        artifact = prepare(db)
        stale = dict(db)
        rows = list(db["R1"])
        rows[0] = (rows[0][0], Interval(-100, 100))
        stale["R1"] = TemporalRelation("R1", db["R1"].attrs, rows)
        with pytest.raises(QueryError, match="stale"):
            temporal_join(
                query, stale, algorithm="timefirst", prepared=artifact
            )

    def test_changed_attrs_detected(self, line3):
        _, db = line3
        artifact = prepare(db)
        renamed = dict(db)
        renamed["R1"] = TemporalRelation("R1", ("x1", "z"), list(db["R1"]))
        with pytest.raises(QueryError, match="attributes"):
            artifact.validate_against(renamed)

    def test_run_batch_validates_queries(self, line3):
        from repro.core.errors import SchemaError

        _, db = line3
        artifact = prepare(db)
        foreign = JoinQuery({"S1": ("a", "b")})
        with pytest.raises(SchemaError, match="missing relation"):
            run_batch([foreign], artifact)


def _sub_db(query, db):
    return {name: db[name] for name in query.edge_names}


def _fleet(db):
    """line3 twice, an attr-order variant, and a line2 sub-chain."""
    line3 = JoinQuery.line(3)
    reversed3 = JoinQuery(
        {name: line3.edge(name) for name in line3.edge_names},
        attr_order=tuple(reversed(line3.attrs)),
    )
    line2 = JoinQuery({"R1": ("x1", "x2"), "R2": ("x2", "x3")})
    return [line3, line3, reversed3, line2]


class TestRunBatch:
    def test_matches_individual_calls(self, line3):
        _, db = line3
        artifact = prepare(db)
        queries = _fleet(db)
        results = run_batch(queries, artifact, algorithm="timefirst")
        assert len(results) == len(queries)
        for query, result in zip(queries, results):
            assert tuple(result.attrs) == tuple(query.attrs)
            assert result.normalized() == _object_result(
                query, _sub_db(query, db)
            )

    def test_single_sort_across_batch(self, line3):
        _, db = line3
        stats = ExecutionStats()
        artifact = prepare(db, stats=stats)
        run_batch(_fleet(db), artifact, algorithm="timefirst", stats=stats)
        # The ingest sort is the only sort: restriction and sharing are
        # derivations, never re-sorts. This is the amortization contract.
        assert stats["kernel.sort_calls"] == 1
        assert stats["prepared.batch_queries"] == 4
        assert stats["prepared.batch_evaluations"] == 2
        assert stats["prepared.shared_results"] == 2
        assert stats["prepared.restrict_cache_misses"] == 1

    def test_tau_batch_adds_exactly_one_sort(self, line3):
        _, db = line3
        stats = ExecutionStats()
        artifact = prepare(db, stats=stats)
        queries = _fleet(db)
        results = run_batch(
            queries, artifact, tau=3, algorithm="timefirst", stats=stats
        )
        assert stats["kernel.sort_calls"] == 2  # ingest + one τ-view
        for query, result in zip(queries, results):
            assert result.normalized() == _object_result(
                query, _sub_db(query, db), tau=3
            )

    def test_duplicate_templates_share_rows(self, line3):
        _, db = line3
        query = JoinQuery.line(3)
        results = run_batch([query, query], prepare(db), algorithm="timefirst")
        assert results[0].normalized() == results[1].normalized()
        assert results[0] is not results[1]  # caller-safe copies

    def test_auto_algorithm_batch(self, line3):
        _, db = line3
        artifact = prepare(db)
        queries = _fleet(db)
        stats = ExecutionStats()
        results = run_batch(queries, artifact, algorithm="auto", stats=stats)
        for query, result in zip(queries, results):
            want = temporal_join(
                query, _sub_db(query, db), algorithm="auto"
            ).normalized()
            assert result.normalized() == want
        assert stats["prepared.plan_cache_hits"] >= 1

    def test_non_kernel_algorithm_falls_back(self, line3):
        _, db = line3
        artifact = prepare(db)
        queries = _fleet(db)
        stats = ExecutionStats()
        results = run_batch(
            queries, artifact, algorithm="baseline", stats=stats
        )
        assert stats["prepared.fallback_queries"] == len(queries)
        for query, result in zip(queries, results):
            assert result.normalized() == _object_result(
                query, _sub_db(query, db), algorithm="baseline"
            )

    @pytest.mark.parametrize("tau", [0, 3])
    def test_parallel_inline_matches_serial(self, line3, tau):
        _, db = line3
        artifact = prepare(db)
        queries = _fleet(db)
        serial = run_batch(queries, artifact, tau=tau, algorithm="timefirst")
        stats = ExecutionStats()
        par = run_batch(
            queries, artifact, tau=tau, algorithm="timefirst",
            workers=3, parallel_mode="inline", stats=stats,
        )
        for a, b in zip(serial, par):
            assert a.normalized() == b.normalized()
        assert stats["parallel.shards"] >= 1
        assert stats["parallel.workers"] >= 1

    def test_empty_batch(self, line3):
        _, db = line3
        assert run_batch([], prepare(db)) == []

    def test_invalid_arguments(self, line3):
        _, db = line3
        artifact = prepare(db)
        query = JoinQuery.line(3)
        with pytest.raises(QueryError, match="workers"):
            run_batch([query], artifact, workers=0)
        with pytest.raises(QueryError, match="unknown algorithm"):
            run_batch([query], artifact, algorithm="quantum")
        with pytest.raises(QueryError, match="engine"):
            run_batch([query], artifact, engine="gpu")
        with pytest.raises(QueryError, match="finite"):
            run_batch([query], artifact, tau=float("inf"))
        with pytest.raises(QueryError, match="mode"):
            run_batch([query], artifact, workers=2, parallel_mode="threads")


class TestPickleContract:
    def test_prepared_database_round_trip(self, line3):
        query, db = line3
        artifact = prepare(db)
        # Warm the caches (τ-view + restriction + plan) before pickling.
        run_batch(_fleet(db), artifact, tau=3, algorithm="timefirst")
        loaded = pickle.loads(pickle.dumps(artifact))
        assert isinstance(loaded, PreparedDatabase)
        got = temporal_join(
            query, db, algorithm="timefirst", prepared=loaded
        )
        assert got.normalized() == _object_result(query, db)

    def test_columns_payload_has_no_object_rows(self, line3):
        """Satellite 1: shard payloads ship no Interval objects.

        ``KernelColumns`` excludes the lazy interval cache from pickling,
        so the payload must never reference the Interval class — even
        after ``intervals()`` has populated the cache.
        """
        _, db = line3
        artifact = prepare(db)
        artifact.columns.intervals()  # populate the per-process cache
        payload = pickle.dumps(artifact.columns)
        assert b"repro.core.interval" not in payload
        assert b"Interval" not in payload

    def test_batch_shard_task_payload_has_no_object_rows(self, line3):
        from repro.parallel.worker import BatchShardTask

        query, db = line3
        artifact = prepare(db)
        columns = artifact.columns
        columns.intervals()
        task = BatchShardTask(
            shard=0, queries=[query], tau=0, cuts=(),
            columns=columns.subset(list(range(columns.n_rows))),
        )
        assert b"repro.core.interval" not in pickle.dumps(task)

    def test_intervals_rebuilt_after_unpickle(self, line3):
        _, db = line3
        columns = prepare(db).columns
        want = columns.intervals()
        loaded = pickle.loads(pickle.dumps(columns))
        assert loaded.intervals() == want


class TestNeedsReduction:
    def test_hierarchical_query_does_not(self):
        assert not needs_reduction(JoinQuery.star(3))

    def test_non_hierarchical_query_does_not(self):
        assert not needs_reduction(JoinQuery.line(3))

    def test_r_hierarchical_only_query_does(self):
        # Hierarchical only after the footnote-2 reduction removes the
        # R2/R3 edges contained in R1.
        query = JoinQuery(
            {"R1": ("a", "b", "c"), "R2": ("a", "b"), "R3": ("b", "c")}
        )
        assert (not query.is_hierarchical) and query.is_r_hierarchical
        assert needs_reduction(query)

    def test_reduction_query_runs_cold_but_correct(self):
        query = JoinQuery(
            {"R1": ("a", "b", "c"), "R2": ("a", "b"), "R3": ("b", "c")}
        )
        assert needs_reduction(query)
        db = {
            "R1": TemporalRelation(
                "R1", ("a", "b", "c"),
                [(("a0", "b0", "c0"), Interval(0, 10)),
                 (("a1", "b0", "c0"), Interval(2, 8))],
            ),
            "R2": TemporalRelation(
                "R2", ("a", "b"),
                [(("a0", "b0"), Interval(1, 9)), (("a1", "b0"), Interval(3, 7))],
            ),
            "R3": TemporalRelation(
                "R3", ("b", "c"), [(("b0", "c0"), Interval(0, 6))]
            ),
        }
        artifact = prepare(db)
        want = _object_result(query, db)
        assert len(want) > 0
        stats = ExecutionStats()
        got = temporal_join(
            query, db, algorithm="timefirst", prepared=artifact, stats=stats
        )
        assert got.normalized() == want
        results = run_batch(
            [query], artifact, algorithm="timefirst", stats=stats
        )
        assert results[0].normalized() == want
        # Both entry points ran it cold (the per-query instance reduction
        # cannot share prepared columns), each counted it and said why.
        assert stats["prepared.fallback_queries"] == 2
        assert "reduction" in stats.notes.get("kernel.fallback_reason", "")

    def test_single_query_and_batch_account_fallback_alike(self):
        """``temporal_join(prepared=)`` notes and counts the cold run as
        ``run_batch`` does, also under ``engine="auto"``."""
        query = JoinQuery({"R": ("a", "b", "c"), "S": ("a", "b"), "T": ("b", "c")})
        db = random_instance(query, random.Random(5), n=20, domain=3)
        artifact = prepare(db)
        single, batch = ExecutionStats(), ExecutionStats()
        got = temporal_join(query, db, prepared=artifact, stats=single)
        (batched,) = run_batch([query], artifact, engine="auto", stats=batch)
        assert len(got) > 0
        assert got.normalized() == batched.normalized()
        for stats in (single, batch):
            assert stats["prepared.fallback_queries"] == 1
            assert "prepared.reuse" not in stats
        note = batch.notes["kernel.fallback_reason"]
        assert "reduction" in note
        assert single.notes.get("kernel.fallback_reason") == note


class TestRestrict:
    def test_restrict_unknown_relation_rejected(self, line3):
        _, db = line3
        with pytest.raises(InvariantError, match="unknown relations"):
            prepare(db).columns.restrict(["R1", "S9"])

    def test_restrict_identity_shortcut(self, line3):
        _, db = line3
        columns = prepare(db).columns
        assert columns.restrict(list(columns.relations)) is columns
