"""Tests for the forward-scan interval join, self-overlap pairs and the
strategy dispatch's errors (strategy equality is a route-matrix row)."""

import random

import pytest

from repro.algorithms.interval_join import (
    JOIN_STRATEGIES,
    forward_scan_join,
    interval_join,
    self_overlap_pairs,
)
from repro.core.errors import QueryError
from repro.core.interval import Interval


def brute_pairs(left, right):
    out = []
    for a, ia in left:
        for b, ib in right:
            hit = ia.intersect(ib)
            if hit is not None:
                out.append((a, b, hit))
    return sorted(out)


def random_items(rng, n, prefix, span=60):
    items = []
    for i in range(n):
        lo = rng.randrange(span)
        items.append((f"{prefix}{i}", Interval(lo, lo + rng.randrange(20))))
    return items


class TestForwardScan:
    def test_simple_overlap(self):
        left = [("a", Interval(0, 5))]
        right = [("b", Interval(3, 9))]
        assert forward_scan_join(left, right) == [("a", "b", Interval(3, 5))]

    def test_touching(self):
        left = [("a", Interval(0, 5))]
        right = [("b", Interval(5, 9))]
        assert forward_scan_join(left, right) == [("a", "b", Interval(5, 5))]

    def test_disjoint(self):
        left = [("a", Interval(0, 2))]
        right = [("b", Interval(3, 9))]
        assert forward_scan_join(left, right) == []

    def test_empty_sides(self):
        assert forward_scan_join([], [("b", Interval(0, 1))]) == []
        assert forward_scan_join([("a", Interval(0, 1))], []) == []

    def test_each_pair_exactly_once(self):
        rng = random.Random(5)
        left = random_items(rng, 40, "l")
        right = random_items(rng, 40, "r")
        pairs = forward_scan_join(left, right)
        keys = [(a, b) for a, b, _ in pairs]
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_against_brute(self, seed):
        rng = random.Random(seed)
        left = random_items(rng, 30, "l")
        right = random_items(rng, 35, "r")
        assert sorted(forward_scan_join(left, right)) == brute_pairs(left, right)

    def test_identical_starts(self):
        left = [("a", Interval(3, 5)), ("b", Interval(3, 8))]
        right = [("c", Interval(3, 4))]
        got = sorted(forward_scan_join(left, right))
        assert got == brute_pairs(left, right)


class TestSelfOverlap:
    def test_unordered_pairs_once(self):
        items = [
            ("a", Interval(0, 5)),
            ("b", Interval(3, 9)),
            ("c", Interval(20, 30)),
        ]
        pairs = self_overlap_pairs(items)
        assert [(a, b) for a, b, _ in pairs] == [("a", "b")]

    def test_count_matches_brute(self):
        rng = random.Random(4)
        items = random_items(rng, 30, "x")
        pairs = self_overlap_pairs(items)
        brute = 0
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                if items[i][1].intersects(items[j][1]):
                    brute += 1
        assert len(pairs) == brute


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
