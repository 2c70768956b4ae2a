"""Unit tests for the serving layer (broker, handles, service façade)."""

import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.serve.broker as broker_module
from repro.algorithms.registry import temporal_join
from repro.core.errors import QueryError
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.obs import ExecutionStats
from repro.serve import (
    Backpressure,
    StandingQuery,
    StreamBroker,
    TemporalJoinService,
)

from conftest import random_database
import random


def star2():
    return JoinQuery.star(2)


class TestStreamingBasics:
    def test_append_then_watermark_emits(self):
        svc = TemporalJoinService()
        pairs = svc.register(star2(), name="pairs")
        assert svc.append("R1", (1, "h"), (0, 10)) == 0
        assert svc.append("R2", (2, "h"), (2, 5)) == 0
        assert svc.advance_to(6) == 1
        [emission] = pairs.drain()
        assert emission.values == (1, "h", 2)
        assert emission.interval.lo == 2 and emission.interval.hi == 5
        # Triggered by the declared watermark at t=6; the result was
        # finalizable at its right endpoint 5.
        assert emission.at == 6 and emission.lag == 1

    def test_arrival_triggers_emission_at_its_start(self):
        svc = TemporalJoinService()
        pairs = svc.register(star2(), name="pairs")
        svc.append("R1", (1, "h"), (0, 10))
        svc.append("R2", (2, "h"), (2, 5))
        # An arrival starting past hi=5 proves the intersection settled.
        assert svc.append("R1", (9, "h"), (7, 8)) == 1
        [emission] = pairs.drain()
        assert emission.at == 7 and emission.lag == 2

    def test_finish_flushes_and_closes(self):
        svc = TemporalJoinService()
        pairs = svc.register(star2(), name="pairs")
        svc.append("R1", (1, "h"), (0, 10))
        svc.append("R2", (2, "h"), (2, 5))
        assert svc.finish() == 1
        [emission] = pairs.drain()
        assert emission.lag == 0  # end-of-stream flush: zero by construction
        assert pairs.closed
        with pytest.raises(QueryError):
            svc.append("R1", (3, "h"), (20, 30))
        with pytest.raises(QueryError):
            svc.advance_to(50)
        assert svc.finish() == 0  # idempotent

    def test_lag_at_positive_tau_counts_from_hi_minus_tau(self):
        """At τ = 2 the pair [2, 5] is provable once the stream passes
        5 - 2 = 3: an arrival at 4 delivers it with lag 1, and a flush
        stamps it at 3 with lag 0. Neither is ever negative."""
        svc = TemporalJoinService()
        pairs = svc.register(star2(), tau=2, name="pairs")
        svc.append("R1", (1, "h"), (0, 10))
        svc.append("R2", (2, "h"), (2, 5))
        assert svc.append("R1", (9, "h"), (4, 8)) == 1
        [emission] = pairs.drain()
        assert emission.interval.hi == 5
        assert emission.at == 4 and emission.lag == 1
        assert pairs.stats.get("serve.emit_lag.total") == 1

        svc = TemporalJoinService()
        pairs = svc.register(star2(), tau=2, name="pairs")
        svc.append("R1", (1, "h"), (0, 10))
        svc.append("R2", (2, "h"), (2, 5))
        assert svc.finish() == 1
        [emission] = pairs.drain()
        assert emission.at == 3 and emission.lag == 0

    def test_iteration_ends_at_close(self):
        svc = TemporalJoinService()
        pairs = svc.register(star2(), name="pairs")
        svc.append("R1", (1, "h"), (0, 10))
        svc.append("R2", (2, "h"), (2, 5))
        svc.finish()
        assert [e.values for e in pairs] == [(1, "h", 2)]

    def test_poll_timeout_zero_never_blocks(self):
        svc = TemporalJoinService()
        pairs = svc.register(star2(), name="pairs")
        assert pairs.poll() is None
        svc.append("R1", (1, "h"), (0, 10))
        svc.append("R2", (2, "h"), (2, 5))
        svc.finish()
        assert pairs.poll().values == (1, "h", 2)
        assert pairs.poll() is None

    def test_subscribe_bypasses_buffer(self):
        svc = TemporalJoinService()
        pairs = svc.register(star2(), name="pairs", buffer_size=1)
        seen = []
        pairs.subscribe(seen.append)
        svc.append("R1", (1, "h"), (0, 10))
        svc.append("R2", (3, "h"), (1, 4))
        svc.append("R2", (2, "h"), (2, 5))
        svc.finish()
        assert {e.values for e in seen} == {(1, "h", 2), (1, "h", 3)}
        assert pairs.pending == 0  # push mode: nothing buffered

    def test_strict_ordering_enforced_at_broker(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="pairs")
        svc.append("R1", (1, "h"), (5, 10))
        with pytest.raises(QueryError, match="out-of-order"):
            svc.append("R2", (2, "h"), (3, 9))

    def test_non_strict_clamps_and_notes(self):
        svc = TemporalJoinService(strict=False)
        svc.register(star2(), name="pairs")
        svc.append("R1", (1, "h"), (5, 10))
        svc.append("R2", (2, "h"), (3, 9))
        stats = svc.telemetry()
        assert stats.get("serve.clamped") == 1
        assert "clamped" in stats.notes["serve.clamp_reason"]

    def test_watermark_regression_is_noop(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="pairs")
        svc.advance_to(10)
        assert svc.advance_to(4) == 0
        assert svc.watermark == 10
        assert svc.telemetry().get("serve.watermark_regressions") == 1

    def test_unmatched_append_is_counted_not_fatal(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="pairs")
        svc.append("S9", ("x",), (0, 1))
        assert svc.telemetry().get("serve.unmatched_appends") == 1

    def test_arity_mismatch_rejected(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="pairs")
        with pytest.raises(QueryError, match="arity"):
            svc.append("R1", (1, 2, 3), (0, 1))

    def test_schema_conflict_rejected(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="pairs")
        conflicting = JoinQuery({"R1": ("a", "b", "c"), "Z": ("c", "d")})
        with pytest.raises(QueryError, match="already carries"):
            svc.register(conflicting, name="bad")


class TestBackpressure:
    def _flood(self, policy, buffer_size, **kwargs):
        svc = TemporalJoinService()
        handle = svc.register(
            star2(), name="q", policy=policy, buffer_size=buffer_size, **kwargs
        )
        svc.append("R1", (1, "h"), (0, 100))
        for k in range(5):
            svc.append("R2", (k, "h"), (k, k + 1))
        svc.finish()
        return svc, handle

    def test_unknown_policy_rejected(self):
        svc = TemporalJoinService()
        with pytest.raises(QueryError, match="backpressure"):
            svc.register(star2(), policy="warn")

    def test_drop_oldest_counts_and_snapshot_survives(self):
        svc, handle = self._flood(Backpressure.DROP_OLDEST, buffer_size=2)
        assert handle.pending == 2
        stats = svc.telemetry()
        assert stats.get("serve.dropped") == 3
        assert "drop-oldest" in stats.notes["serve.backpressure"]
        # The consistent snapshot is unaffected by buffer losses.
        assert len(handle.snapshot()) == 5

    def test_error_policy_raises_on_overflow(self):
        with pytest.raises(QueryError, match="overflow"):
            self._flood(Backpressure.ERROR, buffer_size=2)

    def test_block_policy_times_out_without_consumer(self):
        with pytest.raises(QueryError, match="timeout"):
            self._flood(Backpressure.BLOCK, buffer_size=2, block_timeout=0.05)

    def test_block_policy_waits_for_consumer(self):
        svc = TemporalJoinService()
        handle = svc.register(
            star2(), name="q", policy=Backpressure.BLOCK,
            buffer_size=2, block_timeout=5.0,
        )
        consumed = []

        def consume():
            while True:
                emission = handle.poll(timeout=None)
                if emission is None:
                    return
                consumed.append(emission)

        thread = threading.Thread(target=consume)
        thread.start()
        try:
            svc.append("R1", (1, "h"), (0, 100))
            for k in range(20):
                svc.append("R2", (k, "h"), (k, k + 1))
            svc.finish()
        finally:
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(consumed) == 20
        assert svc.telemetry().get("serve.dropped") == 0

    def test_buffer_size_validated(self):
        with pytest.raises(QueryError, match="buffer_size"):
            StandingQuery("q", star2(), 0, buffer_size=0)


class TestSnapshots:
    def test_snapshot_carries_watermark(self):
        svc = TemporalJoinService()
        handle = svc.register(star2(), name="q")
        svc.append("R1", (1, "h"), (0, 10))
        svc.append("R2", (2, "h"), (2, 5))
        svc.advance_to(6)
        snapshot = handle.snapshot()
        assert snapshot.at == 6
        assert len(snapshot) == 1
        svc.finish()
        assert handle.snapshot().at == float("inf")

    def test_snapshot_isolated_from_later_results(self):
        svc = TemporalJoinService()
        handle = svc.register(star2(), name="q")
        svc.append("R1", (1, "h"), (0, 100))
        svc.append("R2", (2, "h"), (2, 5))
        svc.advance_to(6)
        before = handle.snapshot()
        svc.append("R2", (3, "h"), (7, 9))
        svc.finish()
        assert len(before) == 1  # a copy, not a live view
        assert len(handle.snapshot()) == 2

    def test_retention_disabled_rejects_snapshot(self):
        svc = TemporalJoinService()
        handle = svc.register(star2(), name="q", retain_results=False)
        with pytest.raises(QueryError, match="retain_results"):
            handle.snapshot()


class TestTemplateDedup:
    def test_identical_templates_share_one_operator(self):
        svc = TemporalJoinService()
        a = svc.register(star2(), name="a")
        b = svc.register(star2(), name="b")
        assert len(svc.broker.evaluations) == 1
        svc.append("R1", (1, "h"), (0, 10))
        svc.append("R2", (2, "h"), (2, 5))
        svc.finish()
        assert [e.values for e in a.drain()] == [e.values for e in b.drain()]
        stats = svc.telemetry()
        assert stats.get("serve.template_dedup") == 1
        assert stats.get("serve.plan_cache_hits") == 1
        # One operator: the sweep ran once for both handles.
        assert stats.get("sweep.inserts") == 2

    def test_attr_order_variant_gets_projection(self):
        query = star2()
        variant = JoinQuery(
            {name: query.edge(name) for name in query.edge_names},
            attr_order=tuple(reversed(query.attrs)),
        )
        svc = TemporalJoinService()
        a = svc.register(query, name="canon")
        b = svc.register(variant, name="reversed")
        assert len(svc.broker.evaluations) == 1
        svc.append("R1", (1, "h"), (0, 10))
        svc.append("R2", (2, "h"), (2, 5))
        svc.finish()
        assert [e.values for e in a.drain()] == [(1, "h", 2)]
        assert [e.values for e in b.drain()] == [(2, "h", 1)]

    def test_different_tau_does_not_dedup(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="t0", tau=0)
        svc.register(star2(), name="t5", tau=5)
        assert len(svc.broker.evaluations) == 2
        # but the Figure-7 plan is cached per shape, across τ
        assert svc.telemetry().get("serve.plan_cache_hits") == 1

    def test_tau_shrink_drops_short_tuples(self):
        svc = TemporalJoinService()
        handle = svc.register(star2(), name="q", tau=4)
        svc.append("R1", (1, "h"), (0, 10))
        svc.append("R2", (2, "h"), (2, 3))  # shorter than τ: never joins
        svc.finish()
        assert len(handle.snapshot()) == 0
        assert svc.telemetry().get("serve.shrink_dropped") == 1


class TestRegistration:
    def test_duplicate_name_rejected(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="q")
        with pytest.raises(QueryError, match="already registered"):
            svc.register(star2(), name="q")

    def test_auto_names_are_unique(self):
        svc = TemporalJoinService()
        names = {svc.register(star2()).name for _ in range(3)}
        assert len(names) == 3

    def test_deregister_last_handle_kills_evaluation(self):
        svc = TemporalJoinService()
        a = svc.register(star2(), name="a")
        svc.register(star2(), name="b")
        svc.deregister(a)
        assert len(svc.broker.evaluations) == 1
        svc.deregister("b")
        assert len(svc.broker.evaluations) == 0
        assert a.closed
        with pytest.raises(QueryError, match="not registered"):
            svc.deregister("b")
        # the schema registry is released with the evaluation
        svc.register(JoinQuery({"R1": ("z",)}), name="c")

    def test_mid_stream_join_of_existing_template_shares_live_state(self):
        svc = TemporalJoinService()
        early = svc.register(star2(), name="early")
        svc.append("R1", (1, "h"), (0, 100))
        svc.append("R2", (2, "h"), (2, 5))
        svc.advance_to(6)  # finalizes (1,h,2) — delivered to early only
        late = svc.register(star2(), name="late")
        assert len(svc.broker.evaluations) == 1  # joined the live operator
        svc.append("R2", (3, "h"), (7, 9))
        svc.finish()
        assert {e.values for e in early.drain()} == {(1, "h", 2), (1, "h", 3)}
        # the late registrant missed the already-delivered result but
        # shares the operator's live state from its registration on
        assert {e.values for e in late.drain()} == {(1, "h", 3)}

    def test_mid_stream_new_template_starts_at_the_watermark(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="early")
        svc.append("R1", (1, "h"), (0, 100))
        # A *distinct* template (different τ) registered mid-stream gets
        # a fresh operator advanced to the current watermark: it never
        # sees pre-registration arrivals.
        late = svc.register(star2(), name="late", tau=2)
        assert len(svc.broker.evaluations) == 2
        svc.append("R2", (2, "h"), (2, 9))
        svc.finish()
        assert {e.values for e in late.drain()} == set()

    def test_plan_for_returns_cached_plan(self):
        svc = TemporalJoinService()
        handle = svc.register(star2(), name="q")
        assert svc.plan_for(handle) is svc.plan_for("q")
        with pytest.raises(QueryError, match="not registered"):
            svc.plan_for("nope")

    def test_invalid_tau_rejected(self):
        svc = TemporalJoinService()
        with pytest.raises(QueryError):
            svc.register(star2(), tau=-1)


class TestBulkIngest:
    def test_unfinished_live_ingest_can_continue(self):
        rng = random.Random(5)
        query = star2()
        db = random_database(query, rng, n=8, domain=3, time_span=20)
        svc = TemporalJoinService()
        handle = svc.register(query, name="q")
        svc.ingest_database(db, finish=False)
        assert not svc.broker.closed
        svc.advance_to(10_000)
        svc.finish()
        want = temporal_join(query, db)
        assert handle.snapshot().results.normalized() == want.normalized()

    def test_ingest_after_finish_rejected(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="q")
        svc.finish()
        with pytest.raises(QueryError, match="finish"):
            svc.ingest_database({})

    def test_relations_are_read_by_attribute_name(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="q")
        wrong = {
            "R1": TemporalRelation("R1", ("x1", "z"), [((1, "h"), (0, 5))]),
            "R2": TemporalRelation("R2", ("x2", "y"), []),
        }
        with pytest.raises(QueryError, match="'R1'"):
            svc.ingest_database(wrong)
        # A relation no template reads passes whatever its attributes.
        unread = TemporalRelation("S", ("q",), [((1,), (0, 5))])
        assert svc.ingest_database({"S": unread}) == 0
        assert svc.telemetry().get("serve.unmatched_appends") == 1


class TestTelemetryAndReports:
    def test_slo_report_lists_every_query(self):
        svc = TemporalJoinService()
        svc.register(star2(), name="alpha")
        svc.register(JoinQuery({"S1": ("a", "b"), "S2": ("b", "c")}), name="beta")
        svc.append("R1", (1, "h"), (0, 10))
        svc.finish()
        report = svc.slo_report()
        assert "alpha" in report and "beta" in report

    def test_broker_usable_standalone(self):
        broker = StreamBroker()
        handle = StandingQuery("q", star2(), 0)
        broker.attach(("k", 0), star2(), 0, handle)
        broker.append("R1", (1, "h"), (0, 10))
        broker.append("R2", (2, "h"), (2, 5))
        broker.finish()
        assert len(handle.drain()) == 1
        assert broker.finish() == 0  # idempotent

    def test_ingest_rate_counters(self):
        rng = random.Random(7)
        query = star2()
        db = random_database(query, rng, n=10, domain=3)
        svc = TemporalJoinService()
        svc.register(query, name="q")
        svc.register(query, name="q2")  # shares the pass and the operator
        svc.ingest_database(db)
        stats = svc.telemetry()
        n = sum(len(rel) for rel in db.values())
        assert stats.get("serve.ingest_passes") == 1
        assert stats.get("serve.appends") == n
        assert stats.get("serve.fanout_inserts") == n
        assert stats.timers.get("phase.serve.ingest", 0) > 0
        assert stats.timers.get("phase.serve.pass", 0) > 0


class TestChunkedDelivery:
    """Rows leave the broker ``DELIVERY_CHUNK`` at a time, as one batch did."""

    def _run(self, monkeypatch, chunk, policy=Backpressure.BLOCK, buffer_size=1024):
        query = star2()
        variant = JoinQuery(
            {name: query.edge(name) for name in query.edge_names},
            attr_order=tuple(reversed(query.attrs)),
        )
        svc = TemporalJoinService()
        handles = [
            svc.register(q, name=name, tau=2, policy=policy, buffer_size=buffer_size)
            for name, q in (("canon", query), ("reversed", variant))
        ]
        watched = svc.register(query, name="watched", tau=2)
        seen = []
        watched.subscribe(lambda e: seen.append((e, watched.watermark)))
        sizes = []
        deliver = StandingQuery._deliver

        def recording(handle, emissions, watermark):
            if emissions:
                sizes.append(len(emissions))
            return deliver(handle, emissions, watermark)

        with monkeypatch.context() as patch:
            patch.setattr(broker_module, "DELIVERY_CHUNK", chunk)
            patch.setattr(StandingQuery, "_deliver", recording)
            svc.append("R1", (1, "h"), (0, 100))
            for k in range(10):
                # Every R2 tuple outlives the last arrival: all ten
                # results leave in the end-of-stream flush.
                svc.append("R2", (k, "h"), (k, k + 50))
            assert sizes == []
            svc.finish()
        return {
            "drained": {h.name: h.drain() for h in handles},
            "snapshots": {h.name: list(h.snapshot().results) for h in handles},
            "watermarks": {h.name: h.watermark for h in handles + [watched]},
            "handle_counters": {h.name: h.stats.counters for h in handles + [watched]},
            "counters": svc.telemetry().counters,
            "seen": [emission for emission, _ in seen],
        }, sizes, [watermark for _, watermark in seen]

    def test_chunks_keep_order_watermark_and_counters(self, monkeypatch):
        whole, whole_sizes, _ = self._run(monkeypatch, 1024)
        chunked, chunked_sizes, _ = self._run(monkeypatch, 3)
        assert whole_sizes == [10] * 3
        assert chunked_sizes == [3, 3, 3] * 3 + [1] * 3
        # A subscriber sees the same emissions; only the watermark it
        # reads mid-flush differs (next test).
        assert chunked == whole
        assert [e.values for e in chunked["drained"]["canon"]] == [
            (1, "h", k) for k in range(10)
        ]

    def test_watermark_moves_with_the_last_chunk(self, monkeypatch):
        # A snapshot taken mid-flush never claims the end-of-stream
        # watermark before every flushed row is retained.
        chunked, _, watermarks = self._run(monkeypatch, 3)
        assert watermarks == [9] * 9 + [float("inf")]
        assert chunked["watermarks"]["watched"] == float("inf")

    def test_backpressure_drops_the_same_emissions(self, monkeypatch):
        whole, _, _ = self._run(monkeypatch, 1024, Backpressure.DROP_OLDEST, 4)
        chunked, _, _ = self._run(monkeypatch, 3, Backpressure.DROP_OLDEST, 4)
        assert chunked == whole
        assert whole["counters"]["serve.dropped"] == 12
        assert [e.values for e in chunked["drained"]["canon"]] == [
            (1, "h", k) for k in range(6, 10)
        ]

    def test_batch_counters_equal_one_observe_per_emission(self):
        rng = random.Random(11)
        query = JoinQuery.line(3)
        db = random_database(query, rng, n=30, domain=4)
        # Unbounded rows: their flush lag is inf - inf, a NaN counted as 0.
        for name in query.edge_names:
            db[name] = TemporalRelation(
                name, query.edge(name), list(db[name]) + [((9, 9), (5, float("inf")))]
            )
        for tau in (0, 3, 0.5):
            svc = TemporalJoinService()
            handle = svc.register(query, name="q", tau=tau, buffer_size=10**6)
            svc.ingest_database(db)
            reference = ExecutionStats()
            for emission in handle.drain():
                lag = emission.lag
                reference.incr("serve.results_delivered")
                reference.observe("serve.emit_lag", lag if lag == lag else 0)
            assert reference.get("serve.results_delivered") > 0, tau
            assert {
                key: value
                for key, value in handle.stats.counters.items()
                if key.startswith(("serve.results_delivered", "serve.emit_lag"))
            } == reference.counters


class TestEmissionLatency:
    """Each emission leaves at the earliest instant that proves it settled.

    A result with (expanded) right endpoint ``hi`` is provably complete
    once an arrival the operator actually receives starts strictly past
    ``hi - τ`` (its shrunk endpoint has then expired). The emission's
    ``at`` must be exactly the first such arrival start — or, when none
    exists, the end-of-stream flush stamped at ``hi - τ`` (zero lag).
    Either way the lag, measured from ``hi - τ``, is never negative.
    """

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=6, max_value=14),
        tau=st.sampled_from([0, 3]),
        family=st.sampled_from(["star3", "line3", "triangle"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_live_broker_emits_at_first_proof(self, seed, n, tau, family):
        query = {
            "star3": JoinQuery.star(3),
            "line3": JoinQuery.line(3),
            "triangle": JoinQuery.triangle(),
        }[family]
        db = random_database(
            query, random.Random(seed), n, domain=3, time_span=30, max_duration=10
        )
        service = TemporalJoinService()
        handle = service.register(query, tau=tau, name="q", buffer_size=1_000_000)
        service.ingest_database(db)
        starts = sorted(
            iv.lo
            for name in query.edge_names
            for _, iv in db[name]
            if tau == 0 or (iv.hi - iv.lo) >= tau  # shrunk-away tuples never arrive
        )
        for emission in handle.drain():
            threshold = emission.interval.hi - tau
            later = [lo for lo in starts if lo > threshold]
            if later:
                assert emission.at == later[0], (
                    f"emission {emission.values} {emission.interval} left at "
                    f"{emission.at}, but was provable at {later[0]}"
                )
            else:
                assert emission.at == emission.interval.hi - tau
                assert emission.lag == 0
            assert emission.lag >= 0

    def test_declared_watermark_is_a_proof_too(self):
        service = TemporalJoinService()
        handle = service.register(JoinQuery.star(2), name="q")
        service.append("R1", (1, "h"), (0, 10))
        service.append("R2", (2, "h"), (2, 5))
        service.advance_to(6)
        [emission] = handle.drain()
        assert emission.at == 6 and emission.lag == 1
