"""The serving layer must be indistinguishable from the offline join.

The contract under test: for every standing query in a fleet streamed
through :class:`~repro.serve.TemporalJoinService` — hierarchical and
cyclic (GHD-path) templates, τ ∈ {0, 3}, one shared ingest pass, under
every backpressure policy — the snapshot at end of
stream equals ``temporal_join`` over the stored database, and every
emission the live broker delivers leaves at its earliest legal instant:
the first arrival the operator sees that proves the result settled
(watermark latency), or the end-of-stream flush with zero lag.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.algorithms.registry import temporal_join
from repro.core.query import JoinQuery
from repro.serve import Backpressure, TemporalJoinService
from repro.testing import random_temporal_relation


def star3():
    """Q_hier shape: hierarchical, online via HierarchicalState."""
    return JoinQuery.star(3)


def line3():
    """Acyclic non-hierarchical: online via the generic GHD state."""
    return JoinQuery({"L1": ("a", "b"), "L2": ("b", "c"), "L3": ("c", "d")})


def triangle():
    """Cyclic: online via the generic GHD state over a fractional cover."""
    return JoinQuery({"T1": ("a", "b"), "T2": ("b", "c"), "T3": ("a", "c")})


def star3_reversed():
    """Duplicate template with a different output attribute order."""
    query = star3()
    return JoinQuery(
        {name: query.edge(name) for name in query.edge_names},
        attr_order=tuple(reversed(query.attrs)),
    )


def fleet_database(queries, rng, n, domain=3, time_span=30, max_duration=10):
    """One random database covering every relation the fleet reads."""
    db = {}
    for query in queries:
        for name in query.edge_names:
            if name not in db:
                db[name] = random_temporal_relation(
                    name, query.edge(name), n, domain, time_span, rng,
                    max_duration=max_duration,
                )
    return db


def assert_serves_offline(db, fleet, tau, policy):
    """Stream ``db`` once; every handle must equal its offline join.

    Returns the handles for further (latency) assertions.
    """
    buffer_size = 8 if policy == Backpressure.DROP_OLDEST else 1_000_000
    service = TemporalJoinService()
    handles = [
        service.register(
            query, tau=tau, name=f"q{i}",
            policy=policy, buffer_size=buffer_size,
        )
        for i, query in enumerate(fleet)
    ]
    service.ingest_database(db)

    for handle, query in zip(handles, fleet):
        sub = {name: db[name] for name in query.edge_names}
        want = temporal_join(query, sub, tau=tau)
        snapshot = handle.snapshot()
        assert snapshot.at == float("inf")  # end of stream: fully settled
        assert snapshot.results.normalized() == want.normalized(), (
            f"{handle.name} diverges from offline temporal_join at "
            f"tau={tau}, policy={policy}"
        )
    stats = service.telemetry()
    assert stats.get("serve.ingest_passes") == 1
    assert stats.get("serve.template_dedup") >= 1  # the duplicate template
    return handles


def assert_minimal_latency(handle, query, tau, db):
    """Each emission left at the earliest instant that proves it settled.

    A result with (expanded) right endpoint ``hi`` is provably complete
    once an arrival the operator actually receives starts strictly past
    ``hi - τ`` (its shrunk endpoint has then expired). The emission's
    ``at`` must be exactly the first such arrival start — or, when none
    exists, the end-of-stream flush stamped at ``hi - τ`` (zero lag).
    Either way the lag, measured from ``hi - τ``, is never negative.
    """
    starts = sorted(
        iv.lo
        for name in query.edge_names
        for _, iv in db[name]
        if tau == 0 or (iv.hi - iv.lo) >= tau  # shrunk-away tuples never arrive
    )
    emissions = handle.drain()
    assert emissions, "latency check needs at least one buffered emission"
    for emission in emissions:
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


class TestServiceEqualsOffline:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=4, max_value=12),
        tau=st.sampled_from([0, 3]),
        policy=st.sampled_from(Backpressure.ALL),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_fleets(self, seed, n, tau, policy):
        rng = random.Random(seed)
        fleet = [star3(), line3(), triangle(), star3_reversed()]
        db = fleet_database(fleet, rng, n)
        assert_serves_offline(db, fleet, tau, policy)

    @pytest.mark.parametrize("tau", [0, 3])
    @pytest.mark.parametrize("workers", [1])  # the one ingest pass
    @pytest.mark.parametrize("policy", sorted(Backpressure.ALL))
    def test_full_grid_covered(self, tau, workers, policy):
        """Every (τ, policy) cell runs at least once per suite."""
        rng = random.Random(20220612)
        fleet = [star3(), line3(), triangle(), star3_reversed()]
        db = fleet_database(fleet, rng, n=10)
        assert_serves_offline(db, fleet, tau, policy)


class TestEmissionLatency:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=6, max_value=14),
        tau=st.sampled_from([0, 3]),
        family=st.sampled_from(["star3", "line3", "triangle"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_live_broker_emits_at_first_proof(self, seed, n, tau, family):
        rng = random.Random(seed)
        query = {"star3": star3, "line3": line3, "triangle": triangle}[family]()
        db = fleet_database([query], rng, n)
        service = TemporalJoinService()
        handle = service.register(
            query, tau=tau, name="q", buffer_size=1_000_000
        )
        service.ingest_database(db)
        if not handle.pending:
            return  # empty join: nothing to assert about latency
        assert_minimal_latency(handle, query, tau, db)

    def test_declared_watermark_is_a_proof_too(self):
        service = TemporalJoinService()
        handle = service.register(JoinQuery.star(2), name="q")
        service.append("R1", (1, "h"), (0, 10))
        service.append("R2", (2, "h"), (2, 5))
        service.advance_to(6)
        [emission] = handle.drain()
        assert emission.at == 6 and emission.lag == 1
