"""Tests for the algorithm registry and the temporal_join entry point."""

import math

import pytest

from repro.algorithms import registry
from repro.algorithms.registry import (
    available_algorithms,
    get_algorithm,
    temporal_join,
)
from repro.core.errors import PlanError, QueryError
from repro.core.query import JoinQuery

from conftest import random_database


class TestRegistry:
    def test_all_paper_algorithms_registered(self):
        names = available_algorithms()
        for expected in [
            "timefirst",
            "hybrid",
            "hybrid-interval",
            "baseline",
            "joinfirst",
            "naive",
        ]:
            assert expected in names

    def test_get_algorithm(self):
        fn = get_algorithm("timefirst")
        assert callable(fn)

    def test_unknown_algorithm(self):
        with pytest.raises(QueryError):
            get_algorithm("quantum")


class TestTemporalJoinDispatch:
    def test_auto_matches_explicit(self, rng):
        for query in [JoinQuery.line(3), JoinQuery.star(3), JoinQuery.cycle(4)]:
            db = random_database(query, rng, n=10, domain=3)
            auto = temporal_join(query, db, algorithm="auto")
            naive = temporal_join(query, db, algorithm="naive")
            assert auto.normalized() == naive.normalized()

    def test_unknown_algorithm_raises(self, rng):
        q = JoinQuery.line(2)
        db = random_database(q, rng)
        with pytest.raises(QueryError):
            temporal_join(q, db, algorithm="quantum")

    def test_kwargs_forwarded(self, rng):
        q = JoinQuery.line(3)
        db = random_database(q, rng, n=8, domain=3)
        out = temporal_join(q, db, algorithm="baseline", order=["R2", "R1", "R3"])
        assert out.normalized() == temporal_join(q, db, algorithm="naive").normalized()

    def test_tau_kwarg(self, rng):
        q = JoinQuery.star(3)
        db = random_database(q, rng, n=10, domain=3)
        full = temporal_join(q, db)
        durable = temporal_join(q, db, tau=5)
        assert len(durable) <= len(full)
        assert durable.normalized() == full.filter_durable(5).normalized()


class TestTauValidation:
    """Regression: non-finite τ used to flow into shrink_database and
    either produce a silently empty result (nan) or an IntervalError far
    from the caller (inf). It now fails fast at the API boundary."""

    @pytest.mark.parametrize("tau", [math.inf, -math.inf, math.nan])
    def test_non_finite_tau_rejected(self, rng, tau):
        q = JoinQuery.line(2)
        db = random_database(q, rng, n=5, domain=3)
        with pytest.raises(QueryError, match="finite"):
            temporal_join(q, db, tau=tau)

    def test_negative_tau_rejected(self, rng):
        q = JoinQuery.line(2)
        db = random_database(q, rng, n=5, domain=3)
        with pytest.raises(QueryError, match="non-negative"):
            temporal_join(q, db, tau=-1)

    def test_non_numeric_tau_rejected(self, rng):
        q = JoinQuery.line(2)
        db = random_database(q, rng, n=5, domain=3)
        with pytest.raises(QueryError, match="real number"):
            temporal_join(q, db, tau="5")


class TestAutoFallback:
    """Regression: ``algorithm="auto"`` used to wrap the *entire*
    execution in ``except PlanError`` — a PlanError raised mid-execution
    (e.g. a bad kwarg validated inside the algorithm) silently restarted
    the whole join on HYBRID, with the offending kwargs still attached."""

    def test_mid_execution_plan_error_propagates(self, rng):
        # line(3) is guarded, so auto dispatches to an algorithm that
        # accepts residual_strategy — which rejects this value with a
        # PlanError *during* execution. The old code swallowed it and
        # crashed confusingly inside the HYBRID fallback instead.
        q = JoinQuery.line(3)
        db = random_database(q, rng, n=8, domain=3)
        with pytest.raises(PlanError, match="residual strategy"):
            temporal_join(q, db, algorithm="auto", residual_strategy="bogus")

    def test_fallback_is_decided_up_front(self, rng, monkeypatch):
        # Force the planner to pick hybrid-interval for a cycle query
        # (no guarded partition): the up-front applicability check must
        # reroute to HYBRID without ever invoking hybrid-interval.
        from repro.core import planner

        q = JoinQuery.cycle(4)
        db = random_database(q, rng, n=8, domain=3)
        real_plan = planner.plan

        def forced_plan(query, **kwargs):
            choice = real_plan(query, **kwargs)
            object.__setattr__(choice, "algorithm", "hybrid-interval")
            return choice

        monkeypatch.setattr(planner, "plan", forced_plan)
        out = temporal_join(q, db, algorithm="auto")
        want = temporal_join(q, db, algorithm="naive")
        assert out.normalized() == want.normalized()

    def test_fallback_strips_inapplicable_kwargs(self, rng, monkeypatch):
        # Same forced mis-plan, but with a kwarg only the planner's pick
        # understands: the fallback must strip it rather than crash
        # HYBRID with an unexpected keyword argument.
        from repro.core import planner

        q = JoinQuery.cycle(4)
        db = random_database(q, rng, n=8, domain=3)
        real_plan = planner.plan

        def forced_plan(query, **kwargs):
            choice = real_plan(query, **kwargs)
            object.__setattr__(choice, "algorithm", "hybrid-interval")
            return choice

        monkeypatch.setattr(planner, "plan", forced_plan)
        out = temporal_join(q, db, algorithm="auto", residual_strategy="sweep")
        want = temporal_join(q, db, algorithm="naive")
        assert out.normalized() == want.normalized()

    def test_strip_unsupported_kwargs_keeps_var_keyword(self):
        def fn_with_kwargs(query, database, tau=0, **kwargs):
            pass  # pragma: no cover - signature only

        kept = registry.strip_unsupported_kwargs(
            fn_with_kwargs, {"anything": 1, "goes": 2}
        )
        assert kept == {"anything": 1, "goes": 2}

    def test_strip_unsupported_kwargs_filters(self):
        def fn(query, database, tau=0, mode="a"):
            pass  # pragma: no cover - signature only

        kept = registry.strip_unsupported_kwargs(
            fn, {"mode": "b", "residual_strategy": "sweep"}
        )
        assert kept == {"mode": "b"}
