"""Ratio-gated benchmarks: one suite table, one baseline file, one gate.

Each suite times two arms of the same work on the same instance, a
reference and the path that should beat it, and records their ratio.
Absolute seconds are machine noise; the ratio measured on one machine
carries across machines, so that is what the gate compares against the
committed ``BENCH_gates.json``:

==========  ==================================  =====================  =====
suite       arms (reference / subject)          cells (check cells *)  floor
==========  ==================================  =====================  =====
kernels     object / kernel engine (TIMEFIRST)  line3, star3 ×         1.0
                                                1k, 3k*, 10k
prepared    cold fleet / prepare + run_batch    fleet/3k*, fleet/10k   1.0
allen       forward-scan, naive scan or lazy    overlaps/1k, 3k, 10k*, 1.0
            sweep / lazy sweep or hash join     during/1k*, meets/1k,
                                                equals/10k*
planner     exact search / warm plan cache      table1*                2.0
parallel    serial / ``workers=2``              line3/timefirst*,      none
                                                line3/hybrid*
==========  ==================================  =====================  =====

``parallel`` is a record, not a ratio gate: on a small input sharding
may lose to serial, and the record exists to show by how much.

Usage::

    python -m repro.bench.gates [SUITE ...]
        Measure every cell of the named suites (default: all) and
        rewrite only their sections of BENCH_gates.json.

    python -m repro.bench.gates --check [SUITE ...]
        Measure the check cells, write them to BENCH_gates_check.json
        and exit 1 if any breaks a rule (exit 2: unreadable baseline).

A check cell fails when the arms returned different results (``ok``),
when it breaks its suite's counter contract, when its ratio is below the
suite floor, when the ratio fell more than 15% below the baseline's, or
when the baseline has no such cell: a renamed size or fleet must not
turn its gate off silently.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..algorithms.allen import ATOMS, endpoint_hash_join, lazy_sweep_join, pair_interval
from ..algorithms.interval_join import forward_scan_join
from ..algorithms.registry import temporal_join
from ..core.interval import Interval
from ..core.plancache import PlanCache
from ..core.planner import plan
from ..core.query import JoinQuery
from ..kernels.prepared import prepare, run_batch
from ..nontemporal.cover import _fractional_edge_cover_cached
from ..nontemporal.search import clear_search_memo
from ..obs import ExecutionStats
from ..workloads.synthetic import SyntheticConfig, generate
from .reporting import format_seconds

BASELINE = "BENCH_gates.json"
CHECK_OUT = "BENCH_gates_check.json"

#: A check cell may fall this far below its baseline ratio.
TOLERANCE = 0.15
#: Timed samples per arm; each arm reports its best.
REPEAT = 5
TAU = 0.0
#: ``kernels`` and ``prepared`` force TIMEFIRST, the algorithm with a
#: kernel path: the planner would route line chains to HYBRID-INTERVAL
#: and turn an engine comparison into an algorithm comparison.
ALGORITHM = "timefirst"

#: An arm whose probe call is shorter than this is looped: each sample
#: accumulates calls until it lasts at least ``MIN_SAMPLE_S``.
SHORT_ARM_S = 0.020
MIN_SAMPLE_S = 0.050

#: One arm: an untimed setup run before every call (or None), and the
#: timed call itself.
Arm = Tuple[Optional[Callable[[], object]], Callable[[], object]]


def time_arms(
    arms: Mapping[str, Arm], repeat: int
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Best per-call seconds of each arm, and each arm's result.

    One untimed probe call per arm returns the result the cell
    cross-validates and fixes the arm's loop count: an arm shorter than
    ``SHORT_ARM_S`` accumulates calls per sample until the sample lasts
    ``MIN_SAMPLE_S``, so timer and scheduler jitter cannot swing a
    few-millisecond arm. The arms then alternate sample by sample, each
    after ``gc.collect()``, so a slow phase of the host hits both arms
    instead of one.
    """
    results: Dict[str, object] = {}
    loops: Dict[str, int] = {}
    for name, (setup, fn) in arms.items():
        if setup is not None:
            setup()
        start = time.perf_counter()
        results[name] = fn()
        probe = time.perf_counter() - start
        loops[name] = (
            1 if probe >= SHORT_ARM_S
            else math.ceil(MIN_SAMPLE_S / max(probe, 1e-6))
        )
    best = dict.fromkeys(arms, math.inf)
    for _ in range(max(1, repeat)):
        for name, (setup, fn) in arms.items():
            gc.collect()
            total = 0.0
            for _ in range(loops[name]):
                if setup is not None:
                    setup()
                start = time.perf_counter()
                fn()
                total += time.perf_counter() - start
            best[name] = min(best[name], total / loops[name])
    return best, results


def _cell(suite: str, cell: str, seconds: Dict[str, float], ok: bool,
          counters: dict) -> dict:
    """The one cell schema; ``ratio`` is reference over subject seconds."""
    reference, subject = seconds.values()
    return {
        "suite": suite,
        "cell": cell,
        "seconds": seconds,
        "ratio": reference / subject if subject > 0 else math.inf,
        "ok": ok,
        "counters": counters,
    }


# -- kernels: object engine vs interned-columnar kernel engine -------------

#: N = 3 * (n_dangling + n_results) for the 3-relation families.
KERNEL_SIZES: Dict[str, SyntheticConfig] = {
    "1k": SyntheticConfig(n_dangling=310, n_results=25),
    "3k": SyntheticConfig(n_dangling=980, n_results=40),
    "10k": SyntheticConfig(n_dangling=3300, n_results=60),
}

#: line3 drives the generic GHD sweep state, star3 (hierarchical) the
#: X_u counter hierarchy of Theorem 9.
KERNEL_FAMILIES: Dict[str, Callable[[], JoinQuery]] = {
    "line3": lambda: JoinQuery.line(3),
    "star3": lambda: JoinQuery.star(3),
}


def kernels_cell(cell: str, repeat: int) -> dict:
    family, size = cell.split("/")
    query = KERNEL_FAMILIES[family]()
    database = generate(query, KERNEL_SIZES[size])

    def run(engine: str, stats=None):
        return temporal_join(query, database, tau=TAU, algorithm=ALGORITHM,
                             engine=engine, stats=stats)

    seconds, out = time_arms(
        {"object": (None, lambda: run("object")),
         "kernel": (None, lambda: run("kernel"))},
        repeat,
    )
    # Counters from a separate instrumented run, so telemetry never
    # contaminates the timed numbers (likewise in every suite below).
    stats = ExecutionStats()
    run("kernel", stats)
    return _cell("kernels", cell, seconds,
                 out["object"].normalized() == out["kernel"].normalized(), {
                     "input_tuples": query.input_size(database),
                     "results": len(out["kernel"]),
                     "rows": stats.get("kernel.rows"),
                     "semijoin_dropped": stats.get("kernel.semijoin_dropped"),
                     "interned_values": stats.get("kernel.interned_values"),
                     "distinct_endpoints": stats.get("kernel.distinct_endpoints"),
                     "sort_calls": stats.get("kernel.sort_calls"),
                 })


# -- prepared: cold per-query fleet vs one prepare + run_batch -------------

#: Shared line5 schema, N ≈ 5 * (n_dangling + n_results). ``window=150``
#: (below the generator's 300-tick stagger) keeps the dangling mass of
#: different relations disjoint in time, so sub-chain templates return
#: only the backbone: the suite measures ingest amortization across a
#: fleet, and exploding results would swamp the prepare cost.
PREPARED_SIZES: Dict[str, SyntheticConfig] = {
    "3k": SyntheticConfig(n_dangling=560, n_results=40, window=150),
    "10k": SyntheticConfig(n_dangling=1960, n_results=40, window=150),
}


def _chain(first: int, last: int, reverse: bool = False) -> JoinQuery:
    """Sub-chain template R{first}..R{last} of the shared line5 schema."""
    edges = {f"R{k}": (f"x{k}", f"x{k + 1}") for k in range(first, last + 1)}
    query = JoinQuery(edges)
    if reverse:
        query = JoinQuery(edges, attr_order=tuple(reversed(query.attrs)))
    return query


def prepared_fleet() -> List[JoinQuery]:
    """Ten templates over four distinct hypergraphs, duplicated the way
    standing-query registries repeat popular templates: line3 three
    times (once with another output order), line2 three times, line4
    and line5 twice each. ``run_batch`` sweeps each distinct hypergraph
    once and projects shared rows into the duplicates."""
    return [
        _chain(1, 3), _chain(1, 3), _chain(1, 3, reverse=True),
        _chain(2, 3), _chain(2, 3), _chain(2, 3),
        _chain(1, 4), _chain(1, 4),
        _chain(1, 5), _chain(1, 5),
    ]


def prepared_cell(cell: str, repeat: int) -> dict:
    size = cell.split("/")[1]
    database = generate(JoinQuery.line(5), PREPARED_SIZES[size])
    queries = prepared_fleet()
    subs = [{name: database[name] for name in q.edge_names} for q in queries]

    def cold():
        return [temporal_join(q, sub, tau=TAU, algorithm=ALGORITHM,
                              engine="kernel")
                for q, sub in zip(queries, subs)]

    def batch(stats=None):
        return run_batch(queries, prepare(database, stats=stats), tau=TAU,
                         algorithm=ALGORITHM, stats=stats)

    seconds, out = time_arms({"cold": (None, cold), "batch": (None, batch)},
                             repeat)
    stats = ExecutionStats()
    batch(stats)
    return _cell("prepared", cell, seconds, all(
        b.normalized() == c.normalized()
        for b, c in zip(out["batch"], out["cold"])
    ), {
        "input_tuples": JoinQuery.line(5).input_size(database),
        "queries": len(queries),
        "results": sum(len(r) for r in out["batch"]),
        "evaluations": stats.get("prepared.batch_evaluations"),
        "sort_calls": stats.get("kernel.sort_calls"),
        "reuse": stats.get("prepared.reuse"),
        "shared_results": stats.get("prepared.shared_results"),
        "plan_cache_hits": stats.get("prepared.plan_cache_hits"),
        "restrict_cache_hits": stats.get("prepared.restrict_cache_hits"),
        "fallback_queries": stats.get("prepared.fallback_queries"),
    })


# -- allen: lazy sweep vs the strategies it replaced, hash join vs sweep ----

#: Items per side. The time span scales with N (lengths stay uniform(0,
#: 20)), so pair density per tuple is the same at every size.
ALLEN_SIZES: Dict[str, int] = {"1k": 1_000, "3k": 3_000, "10k": 10_000}

#: Each predicate's reference arm. Forward-scan is the other plane
#: sweep, so ``overlaps`` isolates the gapless active set and lazy pair
#: construction; ``during`` and ``meets`` have only the quadratic naive
#: scan, so their cells stay small. ``equals`` measures the hash join
#: the program runs for it against the lazy sweep it replaced.
ALLEN_REFERENCE: Dict[str, str] = {
    "overlaps": "forward-scan",
    "during": "naive",
    "meets": "naive",
    "equals": "lazy-sweep",
}


def allen_workload(size: str, grid: bool) -> Tuple[list, list]:
    """Two sides of random intervals: starts uniform over a span of N,
    lengths uniform(0, 20). ``grid=True`` snaps endpoints to integers
    so equality-shaped atoms (``meets``, ``starts``, ...) fire at all."""
    n = ALLEN_SIZES[size]
    rng = random.Random(n)
    sides = []
    for prefix in ("l", "r"):
        items = []
        for i in range(n):
            if grid:
                lo = float(rng.randrange(n))
                hi = lo + rng.randrange(21)
            else:
                lo = rng.uniform(0.0, float(n))
                hi = lo + rng.uniform(0.0, 20.0)
            items.append((f"{prefix}{i}", Interval(lo, hi)))
        sides.append(items)
    return sides[0], sides[1]


def naive_predicate_join(left, right, predicate: str) -> list:
    """O(n*m) reference: test the atom on every pair."""
    holds = ATOMS[predicate].holds
    out = []
    for lpay, livl in left:
        llo = livl.lo
        lhi = livl.hi
        for rpay, rivl in right:
            if holds(llo, lhi, rivl.lo, rivl.hi):
                out.append(
                    (lpay, rpay,
                     Interval(*pair_interval(llo, lhi, rivl.lo, rivl.hi)))
                )
    return out


def hash_predicate_join(left, right, predicate: str) -> list:
    """:func:`endpoint_hash_join` in ``lazy_sweep_join``'s item and pair
    shape, every item under one key."""
    fast = Interval._fast
    raw = endpoint_hash_join(
        [(pay, (), ivl.lo, ivl.hi) for pay, ivl in left],
        [(pay, (), ivl.lo, ivl.hi) for pay, ivl in right],
        (predicate,),
    )
    return [(a, b, fast(lo, hi)) for a, b, lo, hi in raw]


def allen_cell(cell: str, repeat: int) -> dict:
    predicate, size = cell.split("/")
    reference = ALLEN_REFERENCE[predicate]
    left, right = allen_workload(size, grid=reference != "forward-scan")
    arms: Dict[str, Arm] = {
        "forward-scan": (None, lambda: forward_scan_join(left, right)),
        "naive": (None, lambda: naive_predicate_join(left, right, predicate)),
        "lazy-sweep": (None, lambda: lazy_sweep_join(left, right, predicate=predicate)),
        "hash": (None, lambda: hash_predicate_join(left, right, predicate)),
    }
    subject = "hash" if reference == "lazy-sweep" else "lazy-sweep"
    seconds, out = time_arms(
        {reference: arms[reference], subject: arms[subject]}, repeat
    )
    return _cell("allen", cell, seconds,
                 sorted(out[reference]) == sorted(out[subject]), {
                     "input_tuples": len(left) + len(right),
                     "pairs": len(out[subject]),
                 })


# -- planner: exact decomposition search vs warm persistent plan cache ------

#: The Table 1 fleet: every named family of the paper's guideline table,
#: plus the larger cycles where the search does real work. All shapes
#: are distinct, so the ratio is pure cache-vs-search.
PLANNER_FLEET: Tuple[Tuple[str, Callable[[], JoinQuery]], ...] = (
    ("line2", lambda: JoinQuery.line(2)),
    ("line3", lambda: JoinQuery.line(3)),
    ("line4", lambda: JoinQuery.line(4)),
    ("star3", lambda: JoinQuery.star(3)),
    ("star4", lambda: JoinQuery.star(4)),
    ("triangle", JoinQuery.triangle),
    ("cycle4", lambda: JoinQuery.cycle(4)),
    ("cycle5", lambda: JoinQuery.cycle(5)),
    ("cycle6", lambda: JoinQuery.cycle(6)),
    ("bowtie", JoinQuery.bowtie),
    ("hier", JoinQuery.hier),
)


def _cold_process() -> None:
    """Drop every per-process planner memo, as in a fresh interpreter."""
    clear_search_memo()
    _fractional_edge_cover_cached.cache_clear()


def _plan_fleet(cache: Optional[PlanCache], stats=None) -> list:
    return [plan(make(), cache=cache, stats=stats) for _, make in PLANNER_FLEET]


def planner_cell(cell: str, repeat: int) -> dict:
    """Cold: no persistent cache, every query pays the branch-and-bound
    and its LP bounds. Warm: a pre-populated cache re-read from disk on
    every call, as a fresh process would; no query searches."""
    with tempfile.TemporaryDirectory(prefix="repro-plan-bench-") as root:
        cache_dir = os.path.join(root, "plans")
        _cold_process()
        reference = _plan_fleet(PlanCache(cache_dir))
        seconds, out = time_arms({
            "cold": (_cold_process, lambda: _plan_fleet(None)),
            "warm": (_cold_process, lambda: _plan_fleet(PlanCache(cache_dir))),
        }, repeat)
        cold_stats, warm_stats = ExecutionStats(), ExecutionStats()
        _cold_process()
        _plan_fleet(None, stats=cold_stats)
        _cold_process()
        _plan_fleet(PlanCache(cache_dir), stats=warm_stats)

    def shape(p):
        return p.fhtw, p.hhtw, p.exponent, p.algorithm

    return _cell("planner", cell, seconds, all(
        shape(w) == shape(c) == shape(r)
        for w, c, r in zip(out["warm"], out["cold"], reference)
    ), {
        "queries": len(PLANNER_FLEET),
        "cold_search_nodes": cold_stats.get("planner.search_nodes"),
        "cold_lb_prunes": cold_stats.get("planner.lb_prunes"),
        "warm_search_nodes": warm_stats.get("planner.search_nodes"),
        "warm_cache_hits": warm_stats.get("planner.cache_hits"),
        "warm_cache_misses": warm_stats.get("planner.cache_misses"),
    })


# -- parallel: serial vs time-sharded, a record -----------------------------

PARALLEL_CONFIG = SyntheticConfig(n_dangling=400, n_results=40)
PARALLEL_WORKERS = 2
PARALLEL_MODE = "process"


def parallel_cell(cell: str, repeat: int) -> dict:
    algorithm = cell.split("/")[1]
    query = JoinQuery.line(3)
    database = generate(query, PARALLEL_CONFIG)

    def run(workers: int, stats=None):
        return temporal_join(query, database, tau=TAU, algorithm=algorithm,
                             workers=workers, parallel_mode=PARALLEL_MODE,
                             stats=stats)

    # The first sharded call is instrumented and timed apart: in process
    # mode it is the call that may spawn the resident workers.
    stats = ExecutionStats()
    start = time.perf_counter()
    run(PARALLEL_WORKERS, stats)
    cold_s = time.perf_counter() - start
    seconds, out = time_arms({
        "serial": (None, lambda: run(1)),
        "sharded": (None, lambda: run(PARALLEL_WORKERS)),
    }, repeat)
    shard_times = [v for k, v in stats.timers.items()
                   if k.startswith("phase.parallel.shard")]
    counters = {
        "input_tuples": query.input_size(database),
        "results": len(out["sharded"]),
        "shards": stats.get("parallel.shards"),
        "replicated_tuples": stats.get("parallel.replicated"),
        "skew_pct": stats.get("parallel.skew_pct_peak"),
        "max_shard_seconds": max(shard_times, default=None),
    }
    if PARALLEL_MODE == "process":
        counters["cold_seconds"] = cold_s
        counters["cold_pool_started"] = stats.get("parallel.pool_started")
    return _cell("parallel", cell, seconds,
                 out["serial"].normalized() == out["sharded"].normalized(),
                 counters)


# -- the suite table, the gate, the CLI --------------------------------------


@dataclass(frozen=True)
class Suite:
    measure: Callable[[str, int], dict]
    cells: Tuple[str, ...]
    check_cells: Tuple[str, ...]
    #: Ratio floor; None makes the suite a record, gated on ``ok`` only.
    floor: Optional[float]
    #: Counter -> the value every cell must report.
    contract: Mapping[str, int] = field(default_factory=dict)


SUITES: Dict[str, Suite] = {
    "kernels": Suite(
        kernels_cell,
        tuple(f"{f}/{s}" for f in KERNEL_FAMILIES for s in KERNEL_SIZES),
        ("line3/3k", "star3/3k"), floor=1.0,
    ),
    # One event sort for the whole batch is the amortization (TAU is 0).
    "prepared": Suite(
        prepared_cell, ("fleet/3k", "fleet/10k"), ("fleet/3k",), floor=1.0,
        contract={"sort_calls": 1},
    ),
    "allen": Suite(
        allen_cell,
        ("overlaps/1k", "overlaps/3k", "overlaps/10k", "during/1k",
         "meets/1k", "equals/10k"),
        ("overlaps/10k", "during/1k", "equals/10k"), floor=1.0,
    ),
    # The cache exists to answer every query without searching.
    "planner": Suite(
        planner_cell, ("table1",), ("table1",), floor=2.0,
        contract={"warm_search_nodes": 0,
                  "warm_cache_hits": len(PLANNER_FLEET)},
    ),
    "parallel": Suite(
        parallel_cell, ("line3/timefirst", "line3/hybrid"),
        ("line3/timefirst", "line3/hybrid"), floor=None,
    ),
}


def gate(cell: dict, baseline: Mapping[str, dict]) -> Dict[str, str]:
    """The rules ``cell`` breaks, rule name -> message (empty: it passes).

    ``baseline`` maps cell names to the cells of the suite's section of
    the committed baseline.
    """
    suite = SUITES[cell["suite"]]
    ratio = cell["ratio"]
    broken: Dict[str, str] = {}
    if not cell["ok"]:
        broken["ok"] = "the two arms returned different results"
    wrong = [
        f"{name} = {cell['counters'].get(name)}, must be {want}"
        for name, want in suite.contract.items()
        if cell["counters"].get(name) != want
    ]
    if wrong:
        broken["contract"] = "; ".join(wrong)
    if suite.floor is None:
        return broken
    if ratio < suite.floor:
        broken["floor"] = f"ratio {ratio:.2f}x below the {suite.floor:.2f}x floor"
    ref = baseline.get(cell["cell"])
    if ref is None:
        broken["missing"] = (f"no baseline cell in {BASELINE}; "
                             "run `make bench-baseline`")
    elif ratio < ref["ratio"] * (1.0 - TOLERANCE):
        broken["regression"] = (
            f"ratio {ratio:.2f}x regressed below "
            f"{ref['ratio'] * (1.0 - TOLERANCE):.2f}x (baseline "
            f"{ref['ratio']:.2f}x - {TOLERANCE:.0%} tolerance)"
        )
    return broken


def check(doc: dict, baseline: dict) -> List[str]:
    """Every rule every measured cell breaks, one message each."""
    failures = []
    for name, section in doc.items():
        base = {c["cell"]: c for c in baseline.get(name, {}).get("cells", [])}
        for cell in section["cells"]:
            failures += [f"{name} {cell['cell']}: {message}"
                         for message in gate(cell, base).values()]
    return failures


def measure_suites(suites: Sequence[str], check_only: bool,
                   repeat: int) -> dict:
    """One section per suite: all its cells, or only its check cells."""
    doc = {}
    for name in suites:
        suite = SUITES[name]
        doc[name] = {
            "timestamp": time.time(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "repeat": repeat,
            "cells": [
                suite.measure(cell, repeat)
                for cell in (suite.check_cells if check_only else suite.cells)
            ],
        }
    return doc


def render(doc: dict) -> str:
    header = (f"{'suite':<9}{'cell':<17}{'reference':>22}{'subject':>22}"
              f"{'ratio':>9}{'floor':>7}{'ok':>4}")
    lines = [header, "-" * len(header)]
    for name, section in doc.items():
        floor = SUITES[name].floor
        for cell in section["cells"]:
            arms = [f"{arm} {format_seconds(s)}"
                    for arm, s in cell["seconds"].items()]
            lines.append(
                f"{name:<9}{cell['cell']:<17}{arms[0]:>22}{arms[1]:>22}"
                f"{cell['ratio']:>8.2f}x"
                f"{'-' if floor is None else f'{floor:.1f}x':>7}"
                f"{'ok' if cell['ok'] else 'BAD':>4}"
            )
    return "\n".join(lines)


def _write(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.gates",
        description="Ratio-gated benchmarks against BENCH_gates.json",
    )
    parser.add_argument("--check", action="store_true",
                        help=f"measure the check cells into {CHECK_OUT} "
                             "and gate them against the baseline")
    parser.add_argument("suites", nargs="*", metavar="SUITE",
                        help=f"suites to run (default: all of "
                             f"{', '.join(SUITES)})")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.suites) - set(SUITES))
    if unknown:
        parser.error(f"unknown suite(s): {', '.join(unknown)}")
    names = [name for name in SUITES if name in args.suites] or list(SUITES)

    baseline: dict = {}
    if args.check or os.path.exists(BASELINE):
        try:
            with open(BASELINE) as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {BASELINE}: {exc}")
            return 2

    doc = measure_suites(names, check_only=args.check, repeat=REPEAT)
    print(render(doc))

    if args.check:
        _write(CHECK_OUT, doc)
        failures = check(doc, baseline)
        if failures:
            print("\nbench gate FAILED:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(f"\nbench gate passed (tolerance {TOLERANCE:.0%} vs {BASELINE})")
        return 0

    if not all(c["ok"] for section in doc.values() for c in section["cells"]):
        print(f"\nnot writing {BASELINE}: a cell's arms disagreed")
        return 1
    baseline.update(doc)
    _write(BASELINE, baseline)
    print(f"\nwrote {', '.join(names)} to {BASELINE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
