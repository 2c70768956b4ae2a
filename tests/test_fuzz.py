"""Seeded fuzzing: random queries × random instances × all algorithms.

The differential layer above :mod:`tests/test_integration_agreement`
fixes the query families; this module also randomizes the query shape —
random hypergraphs over a small attribute universe, random arities,
random self-contained instances — and checks every algorithm against the
oracle. Deterministic (seeded), bounded (~hundreds of cases), and the
single most effective bug net in the suite during development.
"""

import random

import pytest

from repro.algorithms.naive import naive_join
from repro.algorithms.registry import temporal_join
from repro.core.errors import PlanError
from repro.core.query import JoinQuery

from conftest import random_relation

ATTRS = ["a", "b", "c", "d", "e", "f"]
ALGORITHMS = ["timefirst", "baseline", "joinfirst", "hybrid", "hybrid-interval", "auto"]


def random_query(rng: random.Random) -> JoinQuery:
    """A random join query over ≤ 5 edges / 6 attributes.

    Retries until the hypergraph is one every attribute of which belongs
    to some edge (guaranteed) and the construction is valid; may be
    cyclic, disconnected, non-reduced, or contain unary edges.
    """
    n_edges = rng.randrange(1, 6)
    edges = {}
    for i in range(n_edges):
        arity = rng.randrange(1, 4)
        attrs = rng.sample(ATTRS, arity)
        edges[f"R{i}"] = tuple(attrs)
    return JoinQuery(edges)


def random_instance(query: JoinQuery, rng: random.Random):
    return {
        name: random_relation(
            name,
            query.edge(name),
            n=rng.randrange(2, 10),
            domain=rng.randrange(2, 4),
            time_span=rng.choice([6, 20, 40]),
            rng=rng,
        )
        for name in query.edge_names
    }


@pytest.mark.parametrize("seed", range(40))
def test_fuzz_all_algorithms_agree(seed):
    rng = random.Random(seed * 7919 + 13)
    query = random_query(rng)
    for _ in range(3):
        db = random_instance(query, rng)
        tau = rng.choice([0, 0, 1, 3, 8])
        want = naive_join(query, db, tau=tau).normalized()
        for algorithm in ALGORITHMS:
            try:
                got = temporal_join(query, db, tau=tau, algorithm=algorithm)
            except PlanError:
                assert algorithm == "hybrid-interval"
                continue
            assert got.normalized() == want, (
                f"seed={seed} algorithm={algorithm} tau={tau} query={query!r}"
            )


@pytest.mark.parametrize("seed", range(10))
def test_fuzz_extreme_interval_shapes(seed):
    """All-instant, all-unbounded, and mixed interval regimes."""
    from repro.core.interval import Interval
    from repro.core.relation import TemporalRelation

    rng = random.Random(seed + 5000)
    query = random_query(rng)
    regime = seed % 3
    db = {}
    for name in query.edge_names:
        rows = {}
        for _ in range(rng.randrange(2, 8)):
            values = tuple(rng.randrange(3) for _ in query.edge(name))
            if values in rows:
                continue
            if regime == 0:  # all instants
                t = rng.randrange(10)
                rows[values] = Interval(t, t)
            elif regime == 1:  # all unbounded
                rows[values] = Interval.always()
            else:  # mixed, incl. half-open
                kind = rng.randrange(3)
                t = rng.randrange(10)
                if kind == 0:
                    rows[values] = Interval(t, float("inf"))
                elif kind == 1:
                    rows[values] = Interval(float("-inf"), t)
                else:
                    rows[values] = Interval(t, t + rng.randrange(5))
        db[name] = TemporalRelation(name, query.edge(name), list(rows.items()))
    want = naive_join(query, db).normalized()
    for algorithm in ["timefirst", "baseline", "hybrid", "joinfirst"]:
        got = temporal_join(query, db, algorithm=algorithm)
        assert got.normalized() == want, (seed, algorithm)
