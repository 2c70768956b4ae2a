"""Tests for the extended Allen predicate suite and the lazy sweep.

Two layers:

* atom semantics — ``lazy_sweep_join`` against a naive O(n*m) oracle
  for every atom and a set of ``-or-`` unions, over adversarial data
  (duplicates, touching endpoints, instants, ±inf endpoints);
* registry dispatch — ``temporal_join(..., predicate=...)`` fills the
  counters and the report, and raises the documented errors outside
  binary queries. That every predicate route returns the pair oracle's
  rows (engines, ``prepared=``, τ, strategies) is a row of
  ``test_route_matrix``.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.algorithms.allen import (  # noqa: E402
    ATOMS,
    endpoint_hash_join,
    fixes_endpoints,
    lazy_sweep_join,
    pair_interval,
    parse_predicate,
    predicate_names,
)
from repro.algorithms.registry import explain_analyze, temporal_join  # noqa: E402
from repro.core.errors import QueryError  # noqa: E402
from repro.core.interval import Interval  # noqa: E402
from repro.core.query import JoinQuery  # noqa: E402
from repro.core.relation import TemporalRelation  # noqa: E402
from repro.obs import ExecutionStats  # noqa: E402

INF = float("inf")

#: Every atom plus unions covering both disjoint and overlapping atoms.
PREDICATES = sorted(ATOMS) + [
    "overlaps-or-meets",
    "before-or-meets",
    "during-or-equals",
    "starts-or-started-by-or-equals",
    "finishes-or-finished-by",
    "before-or-during",
]


def oracle(left, right, predicate):
    """O(n*m) reference: a pair appears once iff any atom holds."""
    atoms = [ATOMS[a].holds for a in parse_predicate(predicate)]
    out = []
    for lpay, livl in left:
        for rpay, rivl in right:
            if any(h(livl.lo, livl.hi, rivl.lo, rivl.hi) for h in atoms):
                out.append((
                    lpay, rpay,
                    Interval(*pair_interval(livl.lo, livl.hi, rivl.lo, rivl.hi)),
                ))
    return sorted(out)


# ---------------------------------------------------------------------------
# Hypothesis strategies: integer endpoints so equality-shaped atoms fire,
# instants (lo == hi), duplicates, and the occasional infinite endpoint.
# ---------------------------------------------------------------------------

def _interval(draw):
    special = draw(st.integers(0, 19))
    if special == 0:
        return Interval(-INF, draw(st.integers(-3, 8)))
    if special == 1:
        return Interval(draw(st.integers(-3, 8)), INF)
    if special == 2:
        return Interval(-INF, INF)
    lo = draw(st.integers(-3, 8))
    return Interval(lo, lo + draw(st.integers(0, 5)))


@st.composite
def items(draw, prefix, max_n=10):
    n = draw(st.integers(0, max_n))
    return [(f"{prefix}{i}", _interval(draw)) for i in range(n)]


# ---------------------------------------------------------------------------
# Atom semantics
# ---------------------------------------------------------------------------

class TestPredicateParsing:
    def test_atoms_registered(self):
        assert set(ATOMS) == {
            "overlaps", "before", "meets", "starts", "started-by",
            "finishes", "finished-by", "during", "contains", "equals",
        }
        assert predicate_names() == sorted(ATOMS)

    def test_union_split_and_dedup(self):
        assert parse_predicate("overlaps") == ("overlaps",)
        assert parse_predicate("before-or-meets") == ("before", "meets")
        assert parse_predicate("meets-or-meets") == ("meets",)

    def test_unknown_atom_lists_names(self):
        with pytest.raises(QueryError) as exc:
            parse_predicate("before-or-sideways")
        msg = str(exc.value)
        assert "sideways" in msg
        for name in predicate_names():
            assert name in msg

    def test_pair_interval_intersection_and_gap(self):
        assert pair_interval(0, 5, 3, 9) == (3, 5)
        assert pair_interval(0, 5, 5, 9) == (5, 5)  # touching instant
        assert pair_interval(0, 2, 5, 9) == (2, 5)  # before: the gap


class TestAtomSemantics:
    @pytest.mark.parametrize("predicate", PREDICATES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sweep_matches_oracle(self, predicate, data):
        left = data.draw(items("l"))
        right = data.draw(items("r"))
        got = sorted(lazy_sweep_join(left, right, predicate=predicate))
        assert got == oracle(left, right, predicate)

    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_sweep_matches_oracle_dense(self, predicate):
        # Dense deterministic instance: every endpoint collides somewhere.
        rng = random.Random(hash(predicate) % 100000)
        left = []
        right = []
        for i in range(40):
            lo = rng.randrange(8)
            left.append((f"l{i}", Interval(lo, lo + rng.randrange(4))))
            lo = rng.randrange(8)
            right.append((f"r{i}", Interval(lo, lo + rng.randrange(4))))
        got = sorted(lazy_sweep_join(left, right, predicate=predicate))
        assert got == oracle(left, right, predicate)

    def test_stats_do_not_change_output(self):
        rng = random.Random(7)
        left = [(f"l{i}", Interval(rng.randrange(10), rng.randrange(10) + 10))
                for i in range(30)]
        right = [(f"r{i}", Interval(rng.randrange(10), rng.randrange(10) + 10))
                 for i in range(30)]
        for predicate in ("overlaps", "during", "before-or-meets"):
            stats = ExecutionStats()
            with_stats = lazy_sweep_join(
                left, right, predicate=predicate, stats=stats
            )
            without = lazy_sweep_join(left, right, predicate=predicate)
            assert with_stats == without  # order-identical, not just multiset
            assert stats["allen.pairs"] == len(with_stats)
            assert stats["allen.events"] > 0

    @pytest.mark.parametrize("predicate", [
        # Unions whose atoms can hold on one pair: zero-length intervals
        # meet and start, or meet and finish, at once.
        p for p in PREDICATES + ["meets-or-finished-by", "equals-or-meets-or-starts"]
        if fixes_endpoints(parse_predicate(p))
    ])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_hash_join_matches_oracle(self, predicate, data):
        # Keys 1, 1.0 and True are one key; 0 is another.
        keys = st.sampled_from([0, 1, 1.0, True])
        left = data.draw(items("l"))
        right = data.draw(items("r"))
        lkeys = [data.draw(keys) for _ in left]
        rkeys = [data.draw(keys) for _ in right]
        got = endpoint_hash_join(
            [(p, k, iv.lo, iv.hi) for (p, iv), k in zip(left, lkeys)],
            [(p, k, iv.lo, iv.hi) for (p, iv), k in zip(right, rkeys)],
            parse_predicate(predicate),
        )
        want = []
        for (lp, liv), lk in zip(left, lkeys):
            same = [(rp, riv) for (rp, riv), rk in zip(right, rkeys) if rk == lk]
            want += oracle([(lp, liv)], same, predicate)
        assert sorted((a, b, Interval(lo, hi)) for a, b, lo, hi in got) == sorted(want)

    def test_active_peak_counter(self):
        left = [("a", Interval(0, 10)), ("b", Interval(1, 9))]
        right = [("c", Interval(2, 8))]
        stats = ExecutionStats()
        lazy_sweep_join(left, right, stats=stats)
        assert stats["allen.active_peak"] >= 2
        assert stats["allen.pairs"] == 2


# ---------------------------------------------------------------------------
# Registry dispatch
# ---------------------------------------------------------------------------

def line2_database(rng, n=20, domain=3, span=25):
    """A line-2 instance where every row is distinct (one unique attr)."""
    query = JoinQuery.line(2)
    db = {}
    for name in query.edge_names:
        attrs = query.edge(name)
        uniq = 0 if name == "R1" else 1
        rows = []
        for i in range(n):
            vals = [f"v{rng.randrange(domain)}" for _ in attrs]
            vals[uniq] = f"u{i}"
            lo = rng.randrange(span)
            rows.append((tuple(vals), (lo, lo + rng.randrange(6))))
        db[name] = TemporalRelation(name, attrs, rows)
    return query, db


class TestRegistryDispatch:
    def test_stats_counters_flow_through(self):
        query, db = line2_database(random.Random(5))
        stats = ExecutionStats()
        result = temporal_join(query, db, predicate="during", stats=stats)
        assert stats["allen.events"] > 0
        assert stats["results"] == len(result)

    def test_explain_analyze_predicate(self):
        # An endpoint-equality predicate runs the hash join, a predicate
        # with a non-equality atom the sweep; the report names which.
        query, db = line2_database(random.Random(6))
        for predicate, strategy in (("meets", "hash"), ("during", "sweep")):
            report = explain_analyze(query, db, predicate=predicate)
            assert report.algorithm == "lazy-sweep"
            assert report.engine == "kernel"
            assert f"strategy {strategy}" in report.plan_explanation
            assert report.stats.notes["allen.strategy"] == strategy
            assert report.stats["allen.pairs"] >= 0
            rendered = report.render()
            assert "allen.pairs" in rendered
            assert ("allen.events" in rendered) == (strategy == "sweep")

    def test_non_binary_query_rejected(self):
        query = JoinQuery.line(3)
        rng = random.Random(8)
        db = {
            name: TemporalRelation(
                name, query.edge(name),
                [((f"u{i}", f"w{i}"), (i, i + 2)) for i in range(4)],
            )
            for name in query.edge_names
        }
        with pytest.raises(QueryError, match="binary"):
            temporal_join(query, db, predicate="meets")

    def test_workers_rejected(self):
        query, db = line2_database(random.Random(9))
        with pytest.raises(QueryError, match="workers"):
            temporal_join(query, db, predicate="meets", workers=2)

    def test_wrong_algorithm_rejected(self):
        query, db = line2_database(random.Random(10))
        with pytest.raises(QueryError, match="predicate"):
            temporal_join(query, db, predicate="meets", algorithm="timefirst")
