"""One telemetry path: ``stats`` is a tracer below the entry points.

* Every public function that accepts ``stats=None`` returns the same
  rows with ``None`` and with an :class:`ExecutionStats`.
* The full counter dict (timers excluded) of one read per route class
  equals a golden captured before the traced and untraced arms were
  merged into one code path.
* An untraced kernel TIMEFIRST read makes as many tracer calls at 4N
  rows as at N: no tracer call runs per row or per event.
* Every route reads a relation by attribute name, also when its
  attribute order differs from its query edge's.
"""

import pytest

from repro import (
    ExecutionStats,
    JoinQuery,
    OnlineTemporalJoin,
    TemporalRelation,
    baseline_join,
    binary_temporal_join,
    explain_analyze,
    hybrid_interval_join,
    hybrid_join,
    joinfirst_join,
    naive_join,
    plan,
    prepare,
    run_batch,
    self_join_database,
    stream_temporal_join,
    temporal_join,
    timefirst_join,
)
from repro.algorithms.allen import lazy_sweep_join
from repro.algorithms.online import arrivals_from_database
from repro.algorithms.registry import available_algorithms, get_algorithm
from repro.kernels import (
    build_columns,
    deintern_results,
    kernel_sweep,
    make_state,
    prepare_run,
)
from repro.kernels.allen import kernel_predicate_join
from repro.nontemporal.cover import _fractional_edge_cover_cached
from repro.nontemporal.search import clear_search_memo
from repro.obs import NullTracer
from repro.parallel.merge import merge_outcomes
from repro.parallel.worker import ShardTask, run_shard
from repro.workloads import ldbc, tpce
from repro.workloads.synthetic import SyntheticConfig, generate


def synthetic(query, n_dangling, seed, n_results=20):
    return generate(
        query, SyntheticConfig(n_dangling=n_dangling, n_results=n_results, seed=seed)
    )


def rows_of(result):
    return sorted((values, iv.lo, iv.hi) for values, iv in result)


# ----------------------------------------------------------------------
# stats=None and ExecutionStats() give the same rows at every boundary
# ----------------------------------------------------------------------
LINE3 = JoinQuery.line(3)
LINE3_DB = synthetic(LINE3, 12, 3, n_results=4)
STAR3 = JoinQuery.star(3)
STAR3_DB = synthetic(STAR3, 12, 4, n_results=4)
LINE2 = JoinQuery.line(2)
LINE2_DB = synthetic(LINE2, 12, 5, n_results=4)


def _kernel_layers(stats):
    run_query, run_db = prepare_run(STAR3, STAR3_DB, 2, stats=stats)
    columns = build_columns(run_db, stats=stats)
    state = make_state(run_query, columns, stats=stats)
    out = kernel_sweep(run_query, columns, state, stats=stats)
    return deintern_results(columns.domains, out).expand_intervals(1)


def _prepared_layers(stats):
    artifact = prepare(STAR3_DB, stats=stats)
    choice = artifact.cached_plan(STAR3, stats=stats)
    assert choice.engine == "kernel"
    columns = artifact.columns_for(STAR3, 0, stats=stats)
    state = make_state(STAR3, columns, stats=stats)
    return deintern_results(
        columns.domains, kernel_sweep(STAR3, columns, state, stats=stats)
    )


def _sharded(stats):
    run_query, run_db = prepare_run(LINE3, LINE3_DB, 0)
    task = ShardTask(
        shard=0, query=run_query, database=run_db, tau=0,
        algorithm="timefirst", cuts=None,
    )
    return merge_outcomes(LINE3, [run_shard(task)], stats=stats)


def _online(stats):
    op = OnlineTemporalJoin(STAR3, stats=stats)
    for relation, values, interval in arrivals_from_database(STAR3_DB):
        op.insert(relation, values, interval)
    op.finish()
    return op.results()


BOUNDARIES = {
    "temporal_join": lambda s: temporal_join(LINE3, LINE3_DB, 2, stats=s),
    "explain_analyze": lambda s: explain_analyze(STAR3, STAR3_DB, stats=s).result,
    "baseline_join": lambda s: baseline_join(LINE3, LINE3_DB, stats=s),
    "binary_temporal_join": lambda s: binary_temporal_join(
        LINE2_DB["R1"], LINE2_DB["R2"], stats=s
    ),
    "hybrid_interval_join": lambda s: hybrid_interval_join(LINE3, LINE3_DB, stats=s),
    "hybrid_join": lambda s: hybrid_join(LINE3, LINE3_DB, stats=s),
    "joinfirst_join": lambda s: joinfirst_join(LINE3, LINE3_DB, stats=s),
    "naive_join": lambda s: naive_join(LINE3, LINE3_DB, stats=s),
    "timefirst_join": lambda s: timefirst_join(STAR3, STAR3_DB, 2, stats=s),
    "timefirst-cm": lambda s: get_algorithm("timefirst-cm")(STAR3, STAR3_DB, stats=s),
    "OnlineTemporalJoin": _online,
    "stream_temporal_join": lambda s: list(
        stream_temporal_join(STAR3, arrivals_from_database(STAR3_DB), stats=s)
    ),
    "run_batch": lambda s: [
        row for result in run_batch([STAR3, STAR3], prepare(STAR3_DB), 2, stats=s)
        for row in result
    ],
    "kernel_predicate_join": lambda s: kernel_predicate_join(
        LINE2, LINE2_DB, "before-or-meets", stats=s
    ),
    "prepare_run/build_columns/make_state/kernel_sweep": _kernel_layers,
    "prepare/cached_plan/columns_for": _prepared_layers,
    "merge_outcomes": _sharded,
}


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_none_and_recording_stats_give_equal_rows(name):
    call = BOUNDARIES[name]
    stats = ExecutionStats()
    assert rows_of(call(None)) == rows_of(call(stats))
    assert stats.counters or stats.timers


@pytest.mark.parametrize("algorithm", sorted(available_algorithms()))
def test_registered_algorithms_accept_none(algorithm):
    fn = get_algorithm(algorithm)
    query, db = (STAR3, STAR3_DB) if algorithm == "timefirst-cm" else (LINE3, LINE3_DB)
    assert rows_of(fn(query, db, tau=2, stats=None)) == rows_of(
        fn(query, db, tau=2, stats=ExecutionStats())
    )


def test_plan_accepts_none():
    assert plan(LINE3, stats=None).explain() == plan(LINE3, stats=ExecutionStats()).explain()


# ----------------------------------------------------------------------
# Counter golden: one read per route class
# ----------------------------------------------------------------------
def _tpce_batch(stats):
    config = tpce.TPCEConfig(
        n_customers=40, n_securities=12, hot_securities=3, n_holdings=200, seed=170
    )
    db = tpce.star_database(tpce.generate_holdings(config), 3)
    fleet = [tpce.star_query(3), tpce.star_query(2), tpce.star_query(3)]
    return run_batch(fleet, prepare(db), tau=170, stats=stats)


def _ldbc_batch(stats):
    config = ldbc.LDBCConfig(n_persons=40, n_knows=150, seed=11)
    db = self_join_database(LINE3, ldbc.knows_relation(config))
    fleet = [LINE3, JoinQuery({"R1": ("x1", "x2"), "R2": ("x2", "x3")}), LINE3]
    return run_batch(fleet, prepare(db), tau=11, stats=stats)


QS4_DB = synthetic(JoinQuery.star(4), 300, 7)
QC4_DB = synthetic(JoinQuery.cycle(4), 60, 8)
QL4_DB = synthetic(JoinQuery.line(4), 60, 9)
ALLEN_DB = synthetic(LINE2, 300, 10)

#: Label -> the read; each runs with a cold planner memo.
READS = {
    "kernel-QS4-tau0": lambda s: temporal_join(JoinQuery.star(4), QS4_DB, 0, stats=s),
    "kernel-QS4-tau100": lambda s: temporal_join(JoinQuery.star(4), QS4_DB, 100, stats=s),
    "hybrid-QC4": lambda s: temporal_join(JoinQuery.cycle(4), QC4_DB, 0, stats=s),
    "hybrid-interval-QL4": lambda s: temporal_join(JoinQuery.line(4), QL4_DB, 0, stats=s),
    "allen-equals": lambda s: temporal_join(
        LINE2, ALLEN_DB, 0, predicate="equals", stats=s
    ),
    "batch-tpce": _tpce_batch,
    "batch-ldbc": _ldbc_batch,
}

#: ``(row count, counters)`` of each read, captured before the merge of
#: the traced and untraced code paths.
GOLDEN = {
    "kernel-QS4-tau0": (20, {
        "hier.deletes": 80, "hier.inserts": 80, "hier.report_fragments": 20,
        "hier.support_updates": 164, "kernel.distinct_endpoints": 39,
        "kernel.interned_values": 1304, "kernel.rows": 80,
        "kernel.semijoin_dropped": 1200, "kernel.sort_calls": 1,
        "planner.lb_prunes": 12, "planner.search_nodes": 20, "results": 20,
        "sweep.active_peak": 32, "sweep.enumerate_calls": 80, "sweep.events": 160,
        "sweep.inserts": 80,
    }),
    "kernel-QS4-tau100": (11, {
        "hier.deletes": 44, "hier.inserts": 44, "hier.report_fragments": 11,
        "hier.support_updates": 90, "kernel.distinct_endpoints": 22,
        "kernel.interned_values": 1259, "kernel.rows": 44,
        "kernel.semijoin_dropped": 1200, "kernel.shrink_dropped": 36,
        "kernel.sort_calls": 1, "planner.lb_prunes": 12, "planner.search_nodes": 20,
        "results": 11, "sweep.active_peak": 16, "sweep.enumerate_calls": 44,
        "sweep.events": 88, "sweep.inserts": 44,
    }),
    # The auto route runs the semijoin pass before HYBRID: its bags hold
    # the 40 rows the pass keeps, not 726.
    "hybrid-QC4": (20, {
        "hier.deletes": 40, "hier.inserts": 40, "hier.report_fragments": 20,
        "hier.support_updates": 122, "hybrid.bag_rows.count": 2,
        "hybrid.bag_rows.max": 20, "hybrid.bag_rows.total": 40, "hybrid.bags": 2,
        "kernel.semijoin_dropped": 196, "planner.lb_prunes": 18,
        "planner.search_nodes": 36, "results": 20, "sweep.active_peak": 14,
        "sweep.enumerate_calls": 40, "sweep.events": 80, "sweep.inserts": 40,
    }),
    # The residual hulls kill 343 of the 363 core tuples in the core
    # join (before them: 363 interval joins scanning 5,920 rows).
    "hybrid-interval-QL4": (20, {
        "hi.core_pruned": 343, "hi.core_tuples": 363, "hi.hull_pruned": 343,
        "hi.interval_joins": 20, "ij.pairs.count": 20, "ij.pairs.max": 1,
        "ij.pairs.total": 20, "ij.scan.count": 20, "ij.scan.max": 2, "ij.scan.total": 40,
        "planner.lb_prunes": 16, "planner.search_nodes": 28, "results": 20,
    }),
    # An endpoint-equality predicate is one hash join over the stored
    # rows: no interning, no sweep, one atom.
    "allen-equals": (20, {"allen.atoms": 1, "allen.pairs": 20, "results": 20}),
    "batch-tpce": (5538, {
        "hier.deletes": 530, "hier.inserts": 530, "hier.report_fragments": 3002,
        "hier.support_updates": 314, "kernel.semijoin_dropped": 0,
        "kernel.shrink_dropped": 282, "kernel.sort_calls": 1, "planner.lb_prunes": 8,
        "planner.search_nodes": 18, "prepared.batch_evaluations": 2,
        "prepared.batch_queries": 3, "prepared.plan_cache_hits": 1,
        "prepared.plan_cache_misses": 2, "prepared.restrict_cache_misses": 1,
        "prepared.reuse": 2, "prepared.shared_results": 1,
        "prepared.view_cache_hits": 1, "prepared.view_cache_misses": 1,
        "results": 3002, "sweep.active_peak": 63, "sweep.enumerate_calls": 530,
        "sweep.events": 1060, "sweep.inserts": 530,
    }),
    "batch-ldbc": (60912, {
        "hi.core_tuples": 300, "hi.interval_joins": 300, "hier.deletes": 600,
        "hier.inserts": 600, "hier.report_fragments": 3060,
        "hier.support_updates": 162, "ij.pairs.count": 300, "ij.pairs.max": 502,
        "ij.pairs.total": 28926, "ij.scan.count": 300, "ij.scan.max": 45,
        "ij.scan.total": 6120, "kernel.semijoin_dropped": 0,
        "kernel.shrink_dropped": 0, "kernel.sort_calls": 1, "planner.lb_prunes": 7,
        "planner.search_nodes": 20, "prepared.batch_evaluations": 2,
        "prepared.batch_queries": 3, "prepared.fallback_queries": 2,
        "prepared.plan_cache_hits": 1, "prepared.plan_cache_misses": 2,
        "prepared.restrict_cache_misses": 1, "prepared.reuse": 1,
        "prepared.shared_results": 1, "prepared.view_cache_misses": 1,
        "results": 31986, "sweep.active_peak": 572, "sweep.enumerate_calls": 600,
        "sweep.events": 1200, "sweep.inserts": 600,
    }),
}


#: The notes a read records; every other read records none.
GOLDEN_NOTES = {"allen-equals": {"allen.strategy": "hash"}}


def run_read(label):
    """``(row count, counters, notes)`` of one golden read, planner memo cold."""
    clear_search_memo()
    _fractional_edge_cover_cached.cache_clear()
    stats = ExecutionStats()
    result = READS[label](stats)
    rows = sum(map(len, result)) if isinstance(result, list) else len(result)
    return rows, stats.counters, stats.notes


@pytest.mark.parametrize("label", sorted(READS))
def test_counters_match_the_golden(label):
    rows, counters, notes = run_read(label)
    assert (rows, counters) == GOLDEN[label]
    assert notes == GOLDEN_NOTES.get(label, {})


# ----------------------------------------------------------------------
# No tracer call per row or per event
# ----------------------------------------------------------------------
def test_untraced_kernel_read_makes_a_fixed_number_of_tracer_calls(monkeypatch):
    calls = []

    def counting(method):
        def call(self, *args, **kwargs):
            calls.append(method)
            return original[method](self, *args, **kwargs)
        return call

    original = {
        name: getattr(NullTracer, name)
        for name in ("incr", "peak", "observe", "timer", "add_time", "note",
                     "merge", "derive")
    }
    for name in original:
        monkeypatch.setattr(NullTracer, name, counting(name))

    def calls_at(n_dangling):
        db = synthetic(JoinQuery.star(3), n_dangling, 11, n_results=n_dangling // 10)
        del calls[:]
        out = temporal_join(JoinQuery.star(3), db, algorithm="timefirst", engine="kernel")
        assert len(out) >= n_dangling // 10
        return sorted(calls)

    small = calls_at(100)
    assert small and small == calls_at(400)


# ----------------------------------------------------------------------
# Relations are read by attribute name on every route
# ----------------------------------------------------------------------
def _permuted_instance():
    """``R1(y, x1)`` stored as ``(x1, y)``: joins only by attribute name."""
    query = JoinQuery({"R1": ("y", "x1"), "R2": ("y", "x2"), "R3": ("y", "x3")})
    db = {
        "R1": TemporalRelation("R1", ("x1", "y"), [
            ((1, 2), (0, 10)), ((2, 1), (3, 6)), ((4, 5), (2, 8)),
        ]),
        "R2": TemporalRelation("R2", ("y", "x2"), [
            ((1, 5), (0, 10)), ((2, 7), (1, 4)), ((5, 9), (7, 9)),
        ]),
        "R3": TemporalRelation("R3", ("x3", "y"), [
            ((3, 1), (4, 12)), ((6, 2), (0, 2)), ((8, 5), (6, 7)),
        ]),
    }
    return query, db


def test_permuted_oracle_reads_by_name():
    query, db = _permuted_instance()
    got = rows_of(naive_join(query, db))
    # (y, x1, x2, x3): one result per y; read by position, R1 and R3
    # would share no y value at all.
    assert got == [((1, 2, 5, 3), 4, 6), ((2, 1, 7, 6), 1, 2), ((5, 4, 9, 8), 7, 7)]
    two = JoinQuery({"R1": ("y", "x1"), "R2": ("y", "x2")})
    assert rows_of(naive_join(two, {"R1": db["R1"], "R2": db["R2"]})) == [
        ((1, 2, 5), 3, 6), ((2, 1, 7), 1, 4), ((5, 4, 9), 7, 8),
    ]


@pytest.mark.parametrize("engine", ["object", "kernel", "auto"])
@pytest.mark.parametrize("algorithm", ["auto", *sorted(available_algorithms())])
@pytest.mark.parametrize("tau", [0, 2])
def test_permuted_relation_every_route_matches_naive(algorithm, engine, tau):
    query, db = _permuted_instance()
    want = rows_of(naive_join(query, db, tau=tau))
    got = temporal_join(query, db, tau=tau, algorithm=algorithm, engine=engine)
    assert rows_of(got) == want


def test_permuted_relation_prepared_reads_run_cold():
    query, db = _permuted_instance()
    want = rows_of(naive_join(query, db, tau=2))
    artifact = prepare(db)
    stats = ExecutionStats()
    got = temporal_join(query, db, tau=2, prepared=artifact, stats=stats)
    assert rows_of(got) == want
    assert stats["prepared.fallback_queries"] == 1
    assert "stored as ('x1', 'y')" in stats.notes["kernel.fallback_reason"]
    assert rows_of(run_batch([query], artifact, tau=2)[0]) == want
    sharded = temporal_join(
        query, db, tau=2, prepared=artifact, workers=2, parallel_mode="inline"
    )
    assert rows_of(sharded) == want


# ----------------------------------------------------------------------
# The rank-space overlaps predicate runs the shared event sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernel_overlaps_predicate_matches_the_object_sweep(seed):
    db = synthetic(LINE2, 40, seed, n_results=10)
    got = kernel_predicate_join(LINE2, db, "overlaps")
    left = [(values, iv) for values, iv in db["R1"]]
    right = [(values, iv) for values, iv in db["R2"]]
    want = sorted(
        ((lv[0], lv[1], rv[1]), iv.lo, iv.hi)
        for lv, rv, iv in lazy_sweep_join(left, right)
        if lv[1] == rv[0]
    )
    assert rows_of(got) == want and want
