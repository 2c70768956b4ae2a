"""Key shards: joins split on an attribute every relation shares.

When one attribute occurs in every relation of the run query, the
kernel path of ``parallel_temporal_join`` splits rows by that
attribute's value instead of by time. Every result binds the attribute
to one value, so the shards are disjoint in results: nothing is copied
(``parallel.replicated == 0``) and nothing is filtered. The suite checks
serial equality on star, TPC-E-shaped and r-hierarchical instances, and
that time cuts remain where key shards cannot apply — no shared
attribute, a key heavier than ``1/p`` of the rows, explicit ``cuts=``,
or the object engine.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.algorithms.registry import explain_analyze, temporal_join
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.kernels import build_columns, key_shard_row_ids, prepare
from repro.obs import ExecutionStats
from repro.parallel import parallel_temporal_join
from repro.workloads import tpce
from repro.workloads.synthetic import SyntheticConfig, generate

from conftest import random_database

R_HIER = JoinQuery({"R1": ("a", "b"), "R2": ("a", "b", "c")})


def _instance(shape, seed):
    rng = random.Random(seed)
    if shape == "star3":
        query = JoinQuery.star(3)
        return query, random_database(query, rng, n=30, domain=12)
    if shape == "tpce-star3":
        config = tpce.TPCEConfig(
            n_customers=20, n_securities=14, n_holdings=90, hot_securities=2,
            time_span=200, mean_holding=40, seed=seed,
        )
        return tpce.star_query(3), tpce.star_database(tpce.generate_holdings(config), 3)
    query = R_HIER
    return query, random_database(query, rng, n=30, domain=10)


def _sharded(query, db, tau=0, workers=2, **kwargs):
    stats = ExecutionStats()
    got = parallel_temporal_join(
        query, db, tau=tau, algorithm="timefirst", workers=workers,
        mode=kwargs.pop("mode", "inline"), stats=stats, **kwargs,
    )
    want = temporal_join(query, db, tau=tau, algorithm="timefirst")
    assert got.normalized() == want.normalized()
    assert stats["parallel.shard_results.total"] == len(got)
    return stats


@given(
    shape=st.sampled_from(["star3", "tpce-star3", "r-hier"]),
    seed=st.integers(min_value=0, max_value=2**16),
    workers=st.sampled_from([2, 3, 7]),
    tau=st.sampled_from([0, 3]),
    prepared=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_sharded_equals_serial(shape, seed, workers, tau, prepared):
    query, db = _instance(shape, seed)
    kwargs = {"prepared": prepare(db)} if prepared else {}
    stats = _sharded(query, db, tau=tau, workers=workers, **kwargs)
    partition = stats.notes["parallel.partition"]
    if partition.startswith("key:"):
        assert stats["parallel.replicated"] == 0
    else:
        assert partition == "time: heavy key"


def test_keys_are_weighted_by_their_output_bound():
    """Key ``A`` has 3 x 3 = 9 potential results, ``B``/``C`` none; LPT
    by rows alone would pair ``A`` with ``D``, the output bound gives it
    a shard of its own. Every row lands in exactly one shard, ascending."""
    groups = {"A": (3, 3), "B": (5, 0), "C": (0, 5), "D": (1, 1)}
    db = {}
    for name, side in (("R1", 0), ("R2", 1)):
        rows = [
            ((f"{key}{i}", key), (0, 10))
            for key, counts in groups.items()
            for i in range(counts[side])
        ]
        db[name] = TemporalRelation(name, (f"x{side + 1}", "y"), rows)
    columns = build_columns(db)
    shards = key_shard_row_ids(columns, {"R1": 1, "R2": 1}, 2)
    assert sorted(int(r) for ids in shards for r in ids) == list(range(columns.n_rows))
    assert all(list(ids) == sorted(ids) for ids in shards)
    y = columns.domains["y"]
    keys = [{y[columns.row_values[int(r)][1]] for r in ids} for ids in shards]
    assert {"A"} in keys
    assert key_shard_row_ids(columns, {"R1": 1, "R2": 1}, 3) is not None  # A: 6/18
    assert key_shard_row_ids(columns, {"R1": 1, "R2": 1}, 4) is None  # 6/18 > 1/4


def test_qs4_shaped_instance_takes_key_shards():
    query = JoinQuery.star(4)
    db = generate(query, SyntheticConfig(n_dangling=200, n_results=10, seed=1))
    stats = _sharded(query, db)
    assert stats.notes["parallel.partition"] == "key:y"
    assert stats["parallel.replicated"] == 0
    assert stats["parallel.shards"] == 2
    # Shards carry only the rows the semijoin pass keeps.
    kept = query.input_size(db) - stats["kernel.semijoin_dropped"]
    assert stats["parallel.shard_input.total"] == kept < query.input_size(db)
    assert stats["kernel.sort_calls"] == 1


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_every_worker_count_gets_key_shards(workers):
    # 60 keys of three rows each, every key's rows meet: no key is heavy.
    query = JoinQuery.star(3)
    db = {
        name: TemporalRelation(
            name, query.edge(name),
            [((f"{name}-{k}", k), (k, k + 10)) for k in range(60)],
        )
        for name in query.edge_names
    }
    stats = _sharded(query, db, workers=workers)
    assert stats.notes["parallel.partition"] == "key:y"
    assert stats["parallel.shards"] == workers
    assert stats["parallel.replicated"] == 0


def test_key_weights_see_only_the_kept_rows():
    # Key "H" holds most rows, but its R1 and R2 rows never meet: the
    # semijoin pass drops them before the key weights are taken.
    query = JoinQuery.star(2)
    light = [((f"x{k}", k), (k, k + 5)) for k in range(12)]
    db = {
        "R1": TemporalRelation(
            "R1", ("x1", "y"), light + [((f"h{i}", "H"), (0, 1)) for i in range(40)]
        ),
        "R2": TemporalRelation(
            "R2", ("x2", "y"), light + [((f"h{i}", "H"), (5, 6)) for i in range(40)]
        ),
    }
    stats = _sharded(query, db, workers=2)
    assert stats["kernel.semijoin_dropped"] == 80
    assert stats.notes["parallel.partition"] == "key:y"
    assert stats["parallel.shard_input.total"] == 24


def _star2(y_values):
    rows = [((f"x{i}", y), (i, i + 10)) for i, y in enumerate(y_values)]
    return JoinQuery.star(2), {
        "R1": TemporalRelation("R1", ("x1", "y"), rows),
        "R2": TemporalRelation("R2", ("x2", "y"), rows),
    }


@pytest.mark.parametrize(
    "y_values, workers",
    [
        (["h"] * 6, 2),                  # a single key
        (["h"] * 4 + ["a", "b"], 2),     # one key holds 2/3 of the rows
        (["h", "h", "a", "b", "c"], 3),  # 2/5 > 1/3
    ],
)
def test_heavy_key_falls_back_to_time_cuts(y_values, workers):
    query, db = _star2(y_values)
    stats = _sharded(query, db, workers=workers)
    assert stats.notes["parallel.partition"] == "time: heavy key"


def test_heavy_first_attribute_tries_the_next_shared_one():
    rows = [(("k", f"b{i}", "c"), (i, i + 3)) for i in range(8)]
    db = {
        "R1": TemporalRelation("R1", ("a", "b"), [(v[:2], iv) for v, iv in rows]),
        "R2": TemporalRelation("R2", ("a", "b", "c"), rows),
    }
    stats = _sharded(R_HIER, db, workers=2)
    assert stats.notes["parallel.partition"] == "key:b"


def test_explicit_cuts_force_time_shards():
    query = JoinQuery.star(3)
    db = random_database(query, random.Random(5), n=80, domain=60)
    stats = _sharded(query, db, workers=2, cuts=(20,))
    assert stats.notes["parallel.partition"] == "time: explicit cuts"
    assert stats["parallel.shards"] == 2


def test_line3_keeps_time_cuts():
    query = JoinQuery.line(3)
    db = generate(query, SyntheticConfig(n_dangling=30, n_results=8))
    stats = _sharded(query, db, workers=3)
    assert stats.notes["parallel.partition"] == "time: no shared attribute"
    assert stats["parallel.replicated"] > 0


def test_object_engine_keeps_time_cuts():
    query = JoinQuery.star(3)
    db = random_database(query, random.Random(5), n=40, domain=30)
    stats = ExecutionStats()
    got = parallel_temporal_join(
        query, db, algorithm="hybrid", workers=2, mode="inline", stats=stats
    )
    assert got.normalized() == temporal_join(query, db, algorithm="hybrid").normalized()
    assert stats.notes["parallel.partition"] == "time: object engine"


def test_explain_analyze_reports_the_partition():
    query = JoinQuery.star(3)
    db = random_database(query, random.Random(5), n=80, domain=60)
    report = explain_analyze(
        query, db, algorithm="timefirst", workers=2, parallel_mode="inline"
    )
    assert "partition:  key:y" in report.render()


def test_process_mode_key_shards():
    query = JoinQuery.star(4)
    db = generate(query, SyntheticConfig(n_dangling=100, n_results=6, seed=2))
    stats = _sharded(query, db, workers=2, mode="process")
    assert stats.notes["parallel.partition"] == "key:y"
    assert stats["parallel.replicated"] == 0
