"""Smoke benchmark: serial vs sharded timings, written as JSON.

``make bench-smoke`` (and the CI workflow) runs this module to produce
``BENCH_parallel.json`` — one small, fast, machine-readable data point
per commit, so the parallel engine's performance trajectory accumulates
alongside the code. It is a smoke test, not a rigorous benchmark: the
workload is deliberately tiny and the absolute numbers are only
comparable within one machine. The JSON carries everything needed to
read a trend: workload shape, per-cell wall times, and the speedup of
each worker count over the serial anchor.

Process-mode workers are resident: the first ``workers > 1`` call in a
process spawns them and later calls reuse them. So each sharded cell
times its first call on its own (``cold_seconds``, with
``cold_pool_started`` saying whether that call spawned workers) before
the warm repetitions (``seconds`` is their best, ``warm_median_seconds``
their median). The one-time spawn stays visible without hiding the
steady-state speed.

Usage::

    python -m repro.bench.smoke --out BENCH_parallel.json
    python -m repro.bench.smoke --workers 1 2 4 --mode inline  # debugging
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time
from typing import List, Optional, Sequence

from ..algorithms.registry import temporal_join
from ..core.query import JoinQuery
from ..obs import ExecutionStats
from ..workloads.synthetic import SyntheticConfig, generate
from .harness import Measurement, measure_scaling
from .reporting import render_scaling_table

DEFAULT_ALGORITHMS = ("timefirst", "hybrid")
DEFAULT_WORKERS = (1, 2)


def run_smoke(
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    workers_list: Sequence[int] = DEFAULT_WORKERS,
    n_dangling: int = 400,
    n_results: int = 40,
    tau: float = 0.0,
    repeat: int = 3,
    parallel_mode: str = "process",
) -> dict:
    """Measure the smoke workload and return the JSON-ready document."""
    query = JoinQuery.line(3)
    config = SyntheticConfig(n_dangling=n_dangling, n_results=n_results)
    database = generate(query, config)

    cells: List[dict] = []
    tables = {}
    for algorithm in algorithms:
        cold = {
            w: _first_call(query, database, tau, algorithm, w, parallel_mode)
            for w in workers_list
            if w > 1 and parallel_mode == "process"
        }
        ms = measure_scaling(
            algorithm, query, database, tau=tau,
            workers_list=workers_list, repeat=repeat,
            parallel_mode=parallel_mode, collect_stats=True,
        )
        tables[algorithm] = ms
        anchor: Optional[Measurement] = next(
            (m for m in ms if m.workers == 1), None
        )
        for m in ms:
            speedup = (
                anchor.seconds / m.seconds
                if anchor is not None and anchor.ok and m.ok and m.seconds > 0
                else None
            )
            cell = {
                "algorithm": m.algorithm,
                "workers": m.workers,
                "seconds": m.seconds,
                "results": m.result_count,
                "throughput": m.throughput,
                "ok": m.ok,
                "speedup_vs_serial": speedup,
                "warm_median_seconds": statistics.median(m.samples),
            }
            if m.workers in cold:
                cell["cold_seconds"], cell["cold_pool_started"] = cold[m.workers]
            if m.stats is not None and m.workers > 1:
                # Hardware-independent decomposition quality: the critical
                # path (slowest shard) bounds the achievable wall-clock on
                # a machine with >= workers idle cores, regardless of how
                # few cores *this* runner has.
                shard_times = [
                    v for k, v in m.stats.timers.items()
                    if k.startswith("phase.parallel.shard")
                ]
                cell.update(
                    {
                        "shards": m.stats.get("parallel.shards"),
                        "replicated_tuples": m.stats.get("parallel.replicated"),
                        "skew_pct": m.stats.get("parallel.skew_pct_peak"),
                        "max_shard_seconds": max(shard_times, default=None),
                        "critical_path_speedup": (
                            anchor.seconds / max(shard_times)
                            if anchor is not None and shard_times
                            and max(shard_times) > 0
                            else None
                        ),
                    }
                )
            cells.append(cell)

    return {
        "benchmark": "parallel-smoke",
        "timestamp": time.time(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "parallel_mode": parallel_mode,
        "workload": {
            "family": "line3",
            "generator": "workloads.synthetic",
            "n_dangling": n_dangling,
            "n_results": n_results,
            "tau": tau,
            "input_tuples": query.input_size(database),
            "repeat": repeat,
        },
        "cells": cells,
        "rendered": render_scaling_table(
            "Parallel smoke (line3 synthetic)", tables
        ),
    }


def _first_call(query, database, tau, algorithm, workers, parallel_mode):
    """Time one call before the warm repetitions; report if it spawned."""
    stats = ExecutionStats()
    start = time.perf_counter()
    temporal_join(
        query, database, tau=tau, algorithm=algorithm, workers=workers,
        parallel_mode=parallel_mode, stats=stats,
    )
    return time.perf_counter() - start, stats.get("parallel.pool_started")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.smoke",
        description="Serial-vs-sharded smoke benchmark (JSON output)",
    )
    parser.add_argument("--out", default="BENCH_parallel.json",
                        help="output JSON path (default BENCH_parallel.json)")
    parser.add_argument("--algorithms", nargs="+", default=list(DEFAULT_ALGORITHMS))
    parser.add_argument("--workers", nargs="+", type=int,
                        default=list(DEFAULT_WORKERS),
                        help="worker counts to measure (default: 1 2)")
    parser.add_argument("--dangling", type=int, default=400)
    parser.add_argument("--results", type=int, default=40)
    parser.add_argument("--tau", type=float, default=0.0)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--mode", default="process",
                        choices=["process", "inline"],
                        help="parallel execution mode (default: process)")
    args = parser.parse_args(argv)

    doc = run_smoke(
        algorithms=args.algorithms,
        workers_list=args.workers,
        n_dangling=args.dangling,
        n_results=args.results,
        tau=args.tau,
        repeat=args.repeat,
        parallel_mode=args.mode,
    )
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(doc["rendered"])
    print(f"\nwrote {args.out}")
    bad = [c for c in doc["cells"] if not c["ok"]]
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
