"""The traced run: each operation rebuilt from its layers' public functions.

Nothing inside the program is instrumented. Each route is re-executed
here, call by call, with a wall-clock span around every call into a
layer, and the counters the existing ``stats=`` argument emits are read
back afterwards. Each traced operation asserts three things:

* the rebuilt route returns the same rows as the untraced public call;
* the route rebuilt is the one the program reports it took
  (``explain_analyze``'s algorithm and engine, or ``run_batch``'s
  fallback count), so a routing change fails loudly instead of charging
  time to the wrong layer;
* its spans cover its wall time up to ``trace.unattributed_frac``.

``trace.overhead_frac`` is the rebuilt route's wall time over the
untraced call's, minus one. Layer times and counts are reported per
rotation of the workload's operations (peaks as maxima).
"""

from __future__ import annotations

import time
from collections import defaultdict

from inputs import fingerprint
from repro import ExecutionStats, explain_analyze, plan, run_batch
from repro.algorithms.online import arrivals_from_database
from repro.algorithms.registry import get_algorithm
from repro.core.planner import hypergraph_signature
from repro.kernels import (
    build_columns,
    deintern_results,
    kernel_sweep,
    make_state,
    prepare,
    prepare_run,
    shard_row_ids,
)
from repro.kernels.allen import kernel_predicate_join
from repro.kernels.prepared import needs_reduction
from repro.parallel.merge import merge_outcomes
from repro.parallel.partition import partition_timeline
from repro.parallel.worker import ShardTask, run_shard
from repro.serve import TemporalJoinService

#: Every per-layer metric with its unit, in BENCHMARK.json order. A layer
#: a workload never calls reports 0.
PER_LAYER = {
    "planner.plan_s": "s",
    "planner.search_nodes": "count",
    "planner.cache_hits": "count",
    "durability.shrink_s": "s",
    "durability.rows_dropped": "count",
    "columns.build_s": "s",
    "columns.intern_s": "s",
    "columns.rank_sort_s": "s",
    "columns.rows": "count",
    "columns.distinct_endpoints": "count",
    "columns.sort_calls": "count",
    "engine.state_s": "s",
    "engine.sweep_s": "s",
    "engine.events": "count",
    "engine.active_peak": "count",
    "engine.results": "count",
    "columns.deintern_s": "s",
    "result.expand_s": "s",
    "algorithms.object_s": "s",
    "algorithms.hybrid-interval_s": "s",
    "algorithms.hybrid_s": "s",
    "allen.join_s": "s",
    "allen.pairs": "count",
    "prepared.prepare_s": "s",
    "prepared.batch_s": "s",
    "prepared.evaluations": "count",
    "prepared.shared_results": "count",
    "prepared.fallback_queries": "count",
    "parallel.partition_s": "s",
    "parallel.pool_s": "s",
    "parallel.shard_max_s": "s",
    "parallel.merge_s": "s",
    "parallel.replicated": "count",
    "parallel.skew_pct": "%",
    "serve.register_s": "s",
    "serve.append_s": "s",
    "serve.snapshot_s": "s",
    "serve.fanout_inserts": "count",
    "serve.results_emitted": "count",
    "serve.active_peak": "count",
    "trace.unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
}

#: ``ExecutionStats`` counters read back into layer counts, summed.
_COUNTERS = {
    "planner.search_nodes": ("planner.search_nodes",),
    "planner.cache_hits": (
        "planner.cache_hits", "prepared.plan_cache_hits", "serve.plan_cache_hits",
    ),
    "durability.rows_dropped": ("serve.shrink_dropped",),
    "columns.rows": ("kernel.rows",),
    "columns.distinct_endpoints": ("kernel.distinct_endpoints",),
    "columns.sort_calls": ("kernel.sort_calls",),
    "engine.events": ("sweep.events",),
    "allen.pairs": ("allen.pairs",),
    "prepared.evaluations": ("prepared.batch_evaluations",),
    "prepared.shared_results": ("prepared.shared_results",),
    "prepared.fallback_queries": ("prepared.fallback_queries",),
    "parallel.replicated": ("parallel.replicated",),
    "serve.fanout_inserts": ("serve.fanout_inserts",),
    "serve.results_emitted": ("serve.results_emitted",),
}
#: High-water marks, merged by max.
_PEAKS = {
    "engine.active_peak": "sweep.active_peak",
    "parallel.skew_pct": "parallel.skew_pct_peak",
    "serve.active_peak": "serve.active_peak",
}
#: Phase timers recorded inside a layer call, read back as that layer's
#: internal split (never added to the attributed total, which the
#: enclosing span already covers).
_TIMERS = {
    "columns.intern_s": "phase.kernel.intern",
    "columns.rank_sort_s": "phase.kernel.rank",
}


class RouteMismatch(AssertionError):
    """The traced route disagrees with the program's own decision or rows."""


class Layers:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans = defaultdict(float)   # attributed, top-level layer calls
        self.inner = defaultdict(float)   # splits inside an attributed span
        self.counts = defaultdict(int)
        self.once = {}                    # reported as-is, not per rotation
        self.routes = {}
        self.route_wall = 0.0
        self.untraced_wall = 0.0
        self.rotations = 0

    def call(self, layer: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[layer] += time.perf_counter() - start

    def absorb(self, stats: ExecutionStats) -> None:
        for metric, names in _COUNTERS.items():
            self.counts[metric] += sum(stats.get(name) for name in names)
        for metric, name in _PEAKS.items():
            self.counts[metric] = max(self.counts[metric], stats.get(name))
        for metric, name in _TIMERS.items():
            self.inner[metric] += stats.timers.get(name, 0.0)

    def route(self, fn):
        """Run one rebuilt route, charging its wall time to the trace."""
        start = time.perf_counter()
        out = fn()
        self.route_wall += time.perf_counter() - start
        return out

    def pair(self, traced, untraced):
        """Both calls, in an order that alternates by rotation, so neither
        side always runs on the other's warmed caches."""
        if self.rotations % 2:
            public = self.untraced(untraced)
            return self.route(traced), public
        rebuilt = self.route(traced)
        return rebuilt, self.untraced(untraced)

    def untraced(self, fn):
        start = time.perf_counter()
        out = fn()
        self.untraced_wall += time.perf_counter() - start
        return out

    def metrics(self) -> dict:
        per = max(1, self.rotations)
        values = {name: 0 for name in PER_LAYER}
        for name, seconds in list(self.spans.items()) + list(self.inner.items()):
            if name in values:
                values[name] += seconds / per
        for name, count in self.counts.items():
            if name in values:
                values[name] = count if name in _PEAKS else count / per
        values.update(self.once)
        attributed = sum(self.spans.values())
        wall = self.route_wall
        values["trace.unattributed_frac"] = (wall - attributed) / wall if wall else 0
        values["trace.overhead_frac"] = (
            wall / self.untraced_wall - 1 if self.untraced_wall else 0
        )
        return {
            name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }

    def detail(self) -> dict:
        per = max(1, self.rotations)
        return {
            "rotations": self.rotations,
            "spans_per_rotation": {k: v / per for k, v in sorted(self.spans.items())},
            "routes": self.routes,
        }


def _same_rows(label: str, rebuilt, expected) -> None:
    if fingerprint(rebuilt) != fingerprint(expected):
        raise RouteMismatch(f"{label}: rebuilt route rows differ from the public call")


def _check_decision(label: str, expected, reported) -> None:
    if tuple(expected) != tuple(reported):
        raise RouteMismatch(
            f"{label}: traced route {expected} but the program reports {reported}"
        )


# ----------------------------------------------------------------------
# Single-query routes
# ----------------------------------------------------------------------
def _kernel_route(layers: Layers, query, database, tau, stats):
    """``temporal_join``'s kernel TIMEFIRST route, layer by layer."""
    run_query, run_db = layers.call(
        "durability.shrink_s", prepare_run, query, database, tau, stats=stats
    )
    layers.counts["durability.rows_dropped"] += sum(
        len(r) for r in database.values()
    ) - sum(len(r) for r in run_db.values())
    columns = layers.call("columns.build_s", build_columns, run_db, stats=stats)
    state = layers.call("engine.state_s", make_state, run_query, columns, stats=stats)
    out = layers.call(
        "engine.sweep_s", kernel_sweep, run_query, columns, state, stats=stats
    )
    layers.counts["engine.results"] += len(out)
    out = layers.call("columns.deintern_s", deintern_results, columns.domains, out)
    return layers.call("result.expand_s", out.expand_intervals, tau / 2 if tau else 0)


def _object_route(layers: Layers, query, database, tau, stats, algorithm):
    """The object algorithm ``temporal_join`` dispatches to, as one span."""
    start = time.perf_counter()
    out = layers.call(
        "algorithms.object_s", get_algorithm(algorithm),
        query, database, tau=tau, stats=stats,
    )
    layers.inner[f"algorithms.{algorithm}_s"] += time.perf_counter() - start
    return out


def _template_route(layers: Layers, template, stats):
    """Plan, then the route the plan selects (Allen reads skip the planner)."""
    if template.predicate != "overlaps":
        out = layers.call(
            "allen.join_s", kernel_predicate_join, template.query,
            template.database, template.predicate, stats=stats,
        )
        return out.filter_durable(template.tau) if template.tau else out
    choice = layers.call("planner.plan_s", plan, template.query, stats=stats)
    if choice.engine == "kernel":
        return _kernel_route(
            layers, template.query, template.database, template.tau, stats
        )
    return _object_route(
        layers, template.query, template.database, template.tau, stats,
        choice.algorithm,
    )


def _decision(template, **kwargs):
    report = explain_analyze(
        template.query, template.database, template.tau,
        predicate=template.predicate, **kwargs,
    )
    return report.algorithm, report.engine


def _traced_decision(template):
    if template.predicate != "overlaps":
        return "lazy-sweep", "kernel"
    choice = plan(template.query)
    return choice.algorithm, choice.engine


def trace_reads(templates, seconds: float) -> Layers:
    """fig8-mix: every template through its rebuilt route, in rotation."""
    layers = Layers()
    for t in templates:
        expected = _traced_decision(t)
        _check_decision(t.name, expected, _decision(t))
        layers.routes[t.name] = "/".join(expected)
    deadline = time.perf_counter() + seconds
    while layers.rotations == 0 or time.perf_counter() < deadline:
        for t in templates:
            stats = ExecutionStats()
            rebuilt, public = layers.pair(
                lambda: _template_route(layers, t, stats), t.run
            )
            layers.absorb(stats)
            _same_rows(t.name, rebuilt, public)
        layers.rotations += 1
    return layers


# ----------------------------------------------------------------------
# Prepared fleets
# ----------------------------------------------------------------------
def _batch_route(layers: Layers, case, prepared, stats):
    """``run_batch`` rebuilt: plan cache, dedup, kernel or cold fallback."""
    tau = case.tau
    shared = {}
    results = []
    for query in case.queries:
        choice = layers.call(
            "planner.plan_s", prepared.cached_plan, query, stats=stats
        )
        key = (hypergraph_signature(query), choice.algorithm)
        if key in shared:
            results.append(shared[key])
            continue
        if choice.engine == "kernel" and not needs_reduction(query):
            columns = layers.call(
                "durability.shrink_s", prepared.columns_for, query, tau, stats=stats
            )
            state = layers.call(
                "engine.state_s", make_state, query, columns, stats=stats
            )
            out = layers.call(
                "engine.sweep_s", kernel_sweep, query, columns, state, stats=stats
            )
            layers.counts["engine.results"] += len(out)
            out = layers.call(
                "columns.deintern_s", deintern_results, columns.domains, out
            )
            out = layers.call(
                "result.expand_s", out.expand_intervals, tau / 2 if tau else 0
            )
        else:
            out = _object_route(
                layers, query, case.sub_database(query), tau, stats,
                choice.algorithm,
            )
            layers.counts["fallback_queries"] += sum(
                1 for q in case.queries
                if hypergraph_signature(q) == key[0]
            )
        shared[key] = out
        results.append(out)
    return results


def trace_fleet(cases, seconds: float) -> Layers:
    """fig9-fleet: each case's batch rebuilt from the prepared layers."""
    layers = Layers()
    prepared = {}
    for case in cases:
        if case.name in prepared:
            continue
        prepared[case.name] = layers.call("prepared.prepare_s", prepare, case.database)
        for name, query in case.fleet:
            report = explain_analyze(
                query, case.database, case.tau, prepared=prepared[case.name]
            )
            choice = prepared[case.name].cached_plan(query)
            expected = (choice.algorithm, choice.engine)
            _check_decision(f"{case.name}/{name}", expected,
                            (report.algorithm, report.engine))
            layers.routes[f"{case.name}/{name}"] = "/".join(expected)
    layers.once["prepared.prepare_s"] = layers.spans.pop("prepared.prepare_s")
    deadline = time.perf_counter() + seconds
    while layers.rotations == 0 or time.perf_counter() < deadline:
        for case in cases:
            artifact = prepared[case.name]
            public = layers.untraced(
                lambda: run_batch(case.queries, artifact, tau=case.tau)
            )
            # Counters come from the public call; the rebuilt route runs
            # the same uninstrumented code that call runs.
            counted = ExecutionStats()
            run_batch(case.queries, artifact, tau=case.tau, stats=counted)
            before = layers.counts["fallback_queries"]
            rebuilt = layers.route(lambda: _batch_route(layers, case, artifact, None))
            layers.absorb(counted)
            fallbacks = layers.counts["fallback_queries"] - before
            if fallbacks != counted.get("prepared.fallback_queries"):
                raise RouteMismatch(
                    f"{case.name}: rebuilt batch ran {fallbacks} cold fallbacks, "
                    f"run_batch reports {counted.get('prepared.fallback_queries')}"
                )
            for query_rows, public_rows in zip(rebuilt, public):
                _same_rows(case.name, query_rows, public_rows)
        layers.rotations += 1
    layers.inner["prepared.batch_s"] = layers.untraced_wall
    return layers


# ----------------------------------------------------------------------
# Standing queries
# ----------------------------------------------------------------------
def _untimed(_layer, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _discard(_emission) -> None:
    """Push-mode consumer: emissions never back up the ingest path."""


def register_fleet(case, call=_untimed):
    """A fresh service with ``case``'s fleet registered in push mode."""
    service = TemporalJoinService()
    handles = [
        call("serve.register_s", service.register, query, tau=case.tau, name=name)
        for name, query in case.fleet
    ]
    for handle in handles:
        handle.subscribe(_discard)
    return service, handles


def serve_pass(case, call=_untimed):
    """Register the fleet, append every tuple, finish, read snapshots."""
    service, handles = register_fleet(case, call)
    append = service.append
    for relation, values, interval in arrivals_from_database(case.database):
        call("serve.append_s", append, relation, values, interval)
    call("serve.append_s", service.finish)
    snapshots = [call("serve.snapshot_s", h.snapshot) for h in handles]
    return service, [s.results for s in snapshots]


def trace_stream(cases, seconds: float) -> Layers:
    """fig9-stream: register/append/finish/snapshot spans per pass."""
    layers = Layers()
    for case in cases:
        layers.routes[case.name] = "serve/online"
    deadline = time.perf_counter() + seconds
    while layers.rotations == 0 or time.perf_counter() < deadline:
        for case in cases:
            (service, rebuilt), (_, public) = layers.pair(
                lambda: serve_pass(case, layers.call), lambda: serve_pass(case)
            )
            telemetry = service.telemetry()
            layers.absorb(telemetry)
            layers.inner["planner.plan_s"] += telemetry.timers.get(
                "phase.planner.search", 0.0
            )
            for rows, public_rows in zip(rebuilt, public):
                _same_rows(case.name, rows, public_rows)
        layers.rotations += 1
    return layers


# ----------------------------------------------------------------------
# Sharded reads
# ----------------------------------------------------------------------
WORKERS = 2


def _shard_tasks(run_query, columns, partition, tau, algorithm):
    """Kernel shard payloads: each shard's column subset, as the executor builds them."""
    assignments = shard_row_ids(columns, partition.cuts, tau)
    tasks = [
        ShardTask(
            shard=i, query=run_query, database=None, tau=tau,
            algorithm=algorithm, cuts=partition.cuts, kwargs={},
            collect_stats=True, columns=columns.subset(rids),
        )
        for i, rids in enumerate(assignments)
    ]
    return tasks, sum(len(r) for r in assignments) - columns.n_rows


def _sharded_route(layers: Layers, template, stats):
    """``temporal_join(workers=2, parallel_mode="inline")``, layer by layer."""
    query, database, tau = template.query, template.database, template.tau
    choice = layers.call("planner.plan_s", plan, query, stats=stats)
    partition = layers.call(
        "parallel.partition_s", partition_timeline, database, WORKERS
    )
    run_query, run_db = layers.call(
        "durability.shrink_s", prepare_run, query, database, tau, stats=stats
    )
    columns = layers.call("columns.build_s", build_columns, run_db, stats=stats)
    tasks, replicated = layers.call(
        "parallel.partition_s", _shard_tasks, run_query, columns, partition, tau,
        choice.algorithm,
    )
    outcomes = [layers.call("parallel.shards_s", run_shard, task) for task in tasks]
    layers.inner["parallel.shard_max_s"] += max(o.seconds for o in outcomes)
    return layers.call(
        "parallel.merge_s", merge_outcomes, query, outcomes, stats=stats,
        workers=min(WORKERS, len(tasks)), replicated=replicated,
    )


def trace_sharded(templates, seconds: float) -> Layers:
    """sharded: the inline route rebuilt; pool cost = process wall - inline wall."""
    layers = Layers()
    for t in templates:
        expected = (plan(t.query).algorithm, "kernel")
        _check_decision(
            t.name, expected, _decision(t, workers=WORKERS, parallel_mode="inline")
        )
        layers.routes[t.name] = "/".join(expected) + f"/workers={WORKERS}"
    deadline = time.perf_counter() + seconds
    while layers.rotations == 0 or time.perf_counter() < deadline:
        for t in templates:
            start = time.perf_counter()
            t.run(workers=WORKERS, parallel_mode="process")
            process_wall = time.perf_counter() - start
            start = time.perf_counter()
            public = layers.untraced(
                lambda: t.run(workers=WORKERS, parallel_mode="inline")
            )
            layers.inner["parallel.pool_s"] += process_wall - (
                time.perf_counter() - start
            )
            stats = ExecutionStats()
            rebuilt = layers.route(lambda: _sharded_route(layers, t, stats))
            layers.absorb(stats)
            layers.inner["engine.sweep_s"] += stats.timers.get("phase.sweep", 0.0)
            layers.counts["engine.results"] += stats.get("results")
            _same_rows(t.name, rebuilt, public)
        layers.rotations += 1
    return layers
