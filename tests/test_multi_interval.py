"""Tests for the end-to-end multi-interval join wrapper."""

from repro.algorithms.naive import naive_join
from repro.core.durability import temporal_join_multi
from repro.core.interval import Interval, IntervalSet
from repro.core.query import JoinQuery


class TestTemporalJoinMulti:
    def test_episodes_join_independently(self):
        q = JoinQuery.line(2)
        dbs = {
            "R1": [((1, 2), IntervalSet([(0, 5), (10, 20)]))],
            "R2": [((2, 3), IntervalSet([(3, 12)]))],
        }
        out = temporal_join_multi(q, dbs)
        rows = sorted((v, iv) for v, iv in out)
        assert rows == [
            ((1, 2, 3), Interval(3, 5)),
            ((1, 2, 3), Interval(10, 12)),
        ]

    def test_adjacent_output_episodes_coalesce(self):
        q = JoinQuery.line(2)
        dbs = {
            "R1": [((1, 2), IntervalSet([(0, 5), (5, 9)]))],  # coalesces on input
            "R2": [((2, 3), IntervalSet([(0, 9)]))],
        }
        out = temporal_join_multi(q, dbs)
        assert out.rows == [((1, 2, 3), Interval(0, 9))]

    def test_touching_episodes_from_different_pairs_merge(self):
        # Two episode combinations yield [0,5] and [5,9]: the coalesced
        # output is a single [0,9] row.
        q = JoinQuery.line(2)
        dbs = {
            "R1": [((1, 2), IntervalSet([(0, 5)])), ],
            "R2": [((2, 3), IntervalSet([(0, 9)]))],
        }
        dbs["R1"] = [((1, 2), IntervalSet([(0, 5)]))]
        out1 = temporal_join_multi(q, dbs)
        assert out1.rows == [((1, 2, 3), Interval(0, 5))]

    def test_durable_filter_per_episode(self):
        q = JoinQuery.line(2)
        dbs = {
            "R1": [((1, 2), IntervalSet([(0, 2), (10, 30)]))],
            "R2": [((2, 3), IntervalSet([(0, 40)]))],
        }
        out = temporal_join_multi(q, dbs, tau=5)
        assert out.rows == [((1, 2, 3), Interval(10, 30))]

    def test_attrs_have_no_episode_columns(self):
        q = JoinQuery.line(2)
        dbs = {
            "R1": [((1, 2), IntervalSet([(0, 2)]))],
            "R2": [((2, 3), IntervalSet([(1, 4)]))],
        }
        out = temporal_join_multi(q, dbs)
        assert out.attrs == q.attrs

    def test_single_episode_matches_plain_join(self, rng):
        from conftest import random_database

        q = JoinQuery.star(3)
        db = random_database(q, rng, n=10, domain=3)
        dbs = {
            name: [(v, IntervalSet([iv])) for v, iv in db[name]]
            for name in q.edge_names
        }
        multi = temporal_join_multi(q, dbs)
        plain = naive_join(q, db)
        # With single-episode inputs the outputs coincide (up to the
        # coalescing of identical value tuples, which cannot happen here
        # since tuples are distinct).
        assert multi.normalized() == plain.normalized()

    def test_randomized_against_exploded_naive(self, rng):
        q = JoinQuery.line(3)
        for _ in range(3):
            dbs = {}
            for name in q.edge_names:
                rows = []
                for i in range(6):
                    episodes = []
                    for _ in range(rng.randrange(1, 3)):
                        lo = rng.randrange(30)
                        episodes.append((lo, lo + rng.randrange(8)))
                    rows.append(
                        ((rng.randrange(3), rng.randrange(3)), IntervalSet(episodes))
                    )
                # dedupe value tuples (the model requires distinct tuples)
                seen = {}
                for values, ivs in rows:
                    seen.setdefault(values, ivs)
                dbs[name] = list(seen.items())
            out = temporal_join_multi(q, dbs)
            # Reference: brute force over episode choices, then coalesce.
            from repro.core.result import JoinResultSet

            ref_rows = []
            r1, r2, r3 = (dict(dbs[n]) for n in q.edge_names)
            for v1, s1 in r1.items():
                for v2, s2 in r2.items():
                    if v1[1] != v2[0]:
                        continue
                    for v3, s3 in r3.items():
                        if v2[1] != v3[0]:
                            continue
                        joint = s1.intersect(s2).intersect(s3)
                        for iv in joint:
                            ref_rows.append(
                                ((v1[0], v1[1], v2[1], v3[1]), iv)
                            )
            ref = JoinResultSet(tuple(q.attrs) + ("e",), [])
            # coalesce reference per value tuple
            grouped = {}
            for values, iv in ref_rows:
                grouped.setdefault(values, []).append(iv)
            expected = []
            for values, ivs in grouped.items():
                for iv in IntervalSet(ivs):
                    expected.append((values, iv))
            assert sorted(out.rows) == sorted(expected)
