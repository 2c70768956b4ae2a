"""Tests for the binary interval-join strategies and their dispatch."""

import random

import pytest

from repro.algorithms.binary import binary_temporal_join
from repro.algorithms.baseline import baseline_join
from repro.algorithms.interval_join import (
    JOIN_STRATEGIES,
    forward_scan_join,
    interval_join,
)
from repro.algorithms.naive import naive_join
from repro.core.interval import Interval
from repro.core.query import JoinQuery
from repro.core.errors import QueryError

from conftest import random_database


def random_items(rng, n, prefix, span=60):
    items = []
    for i in range(n):
        lo = rng.randrange(span)
        items.append((f"{prefix}{i}", Interval(lo, lo + rng.randrange(20))))
    return items


class TestDispatch:
    def test_all_strategies_registered(self):
        assert set(JOIN_STRATEGIES) == {"forward-scan", "lazy-sweep"}

    def test_unknown_strategy(self):
        # "index" is a retired strategy name, rejected like any other.
        for strategy in ("quantum", "index"):
            with pytest.raises(QueryError) as exc:
                interval_join([], [], strategy=strategy)
            # The error must name the valid strategies.
            assert "lazy-sweep" in str(exc.value)

    def test_unknown_predicate(self):
        with pytest.raises(QueryError) as exc:
            interval_join([], [], predicate="sideways")
        assert "overlaps" in str(exc.value)

    def test_predicate_needs_capable_strategy(self):
        with pytest.raises(QueryError) as exc:
            interval_join([], [], strategy="forward-scan", predicate="meets")
        assert "lazy-sweep" in str(exc.value)

    @pytest.mark.parametrize("strategy", sorted(JOIN_STRATEGIES))
    def test_strategies_agree(self, strategy):
        rng = random.Random(9)
        left = random_items(rng, 30, "l")
        right = random_items(rng, 30, "r")
        got = sorted(interval_join(left, right, strategy=strategy))
        want = sorted(forward_scan_join(left, right))
        assert got == want


class TestThreadThrough:
    @pytest.mark.parametrize("strategy", sorted(JOIN_STRATEGIES))
    def test_binary_join_strategy(self, strategy, rng):
        q = JoinQuery.line(2)
        db = random_database(q, rng, n=15, domain=4)
        got = binary_temporal_join(db["R1"], db["R2"], strategy=strategy)
        want = binary_temporal_join(db["R1"], db["R2"])
        assert sorted(got.rows) == sorted(want.rows)

    @pytest.mark.parametrize("strategy", sorted(JOIN_STRATEGIES))
    def test_baseline_strategy(self, strategy, rng):
        q = JoinQuery.line(3)
        db = random_database(q, rng, n=12, domain=3)
        got = baseline_join(q, db, binary_strategy=strategy)
        want = naive_join(q, db)
        assert got.normalized() == want.normalized()

    def test_strategy_via_registry(self, rng):
        from repro.algorithms.registry import temporal_join

        q = JoinQuery.star(3)
        db = random_database(q, rng, n=10, domain=3)
        got = temporal_join(
            q, db, algorithm="baseline", binary_strategy="forward-scan"
        )
        want = temporal_join(q, db, algorithm="naive")
        assert got.normalized() == want.normalized()
