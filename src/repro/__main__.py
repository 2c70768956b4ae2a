"""Command-line demo: ``python -m repro [query] [--algorithm NAME] [--tau T]``.

Runs a temporal join of the requested family over a small synthetic
instance, prints the planner's Figure-7 decision, the cost-based
advisor's data-aware ranking, and a timing comparison of every
applicable algorithm. Intended as a zero-setup tour of the library.

``python -m repro serve [...]`` instead drives the standing-query
streaming service (see :mod:`repro.serve.cli`).
"""

from __future__ import annotations

import argparse
import sys
import time

from .algorithms.registry import (
    _check_tau,
    available_algorithms,
    describe_algorithms,
    temporal_join,
)
from .core.advisor import advise
from .core.errors import ReproError
from .core.planner import plan
from .core.query import JoinQuery
from .obs import ExecutionStats
from .workloads.synthetic import SyntheticConfig, generate

FAMILIES = {
    "line2": lambda: JoinQuery.line(2),
    "line3": lambda: JoinQuery.line(3),
    "line4": lambda: JoinQuery.line(4),
    "star3": lambda: JoinQuery.star(3),
    "star4": lambda: JoinQuery.star(4),
    "triangle": JoinQuery.triangle,
    "cycle4": lambda: JoinQuery.cycle(4),
    "bowtie": JoinQuery.bowtie,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        from .serve.cli import main as serve_main

        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Temporal multi-way join demo (SIGMOD 2022 reproduction)",
    )
    parser.add_argument(
        "query", nargs="?", default="line3", choices=sorted(FAMILIES),
        help="query family to run (default: line3)",
    )
    parser.add_argument(
        "--parse", default=None, metavar="QUERY",
        help="ad-hoc query in paper notation, e.g. 'R1(a,b) ⋈ R2(b,c)' "
             "(overrides the positional family; binary edges only)",
    )
    parser.add_argument("--tau", type=float, default=0.0,
                        help="durability threshold (default 0)")
    parser.add_argument("--dangling", type=int, default=150,
                        help="synthetic dangling tuples per relation")
    parser.add_argument("--results", type=int, default=40,
                        help="synthetic backbone result count")
    parser.add_argument("--algorithm", default=None,
                        help="run only this algorithm, or 'auto' (default: "
                             "'auto', then every algorithm)")
    parser.add_argument("--workers", type=int, default=None, metavar="P",
                        help="run each algorithm across P shards (split by "
                             "a key every relation shares, else by time) via "
                             "the parallel engine (default: serial)")
    parser.add_argument("--parallel-mode", default="process",
                        choices=["process", "inline"],
                        help="parallel execution mode: 'process' uses a "
                             "spawn-based pool, 'inline' runs the same "
                             "sharded plan in-process (debugging)")
    parser.add_argument("--prepared", action="store_true",
                        help="prepare the database once (columnar intern/"
                             "rank/sort) and reuse the artifact across all "
                             "runs — the multi-query serving mode")
    parser.add_argument("--predicate", default="overlaps", metavar="PRED",
                        help="interval predicate joining pairs must satisfy: "
                             "'overlaps' (default), another extended Allen "
                             "atom (before, meets, starts, started-by, "
                             "finishes, finished-by, during, contains, "
                             "equals) or an '-or-' union such as "
                             "'overlaps-or-meets'. Non-overlaps predicates "
                             "need a binary query, e.g. the line2 family")
    parser.add_argument("--stats", action="store_true",
                        help="collect execution counters (EXPLAIN ANALYZE "
                             "style) and print them per algorithm")
    parser.add_argument("--plan-cache", default=None, metavar="DIR",
                        help="persistent plan-cache directory: the "
                             "minimum-width decomposition search runs at "
                             "most once per query shape across processes "
                             "(created on first use)")
    parser.add_argument("--planner-budget", type=int, default=None,
                        metavar="N",
                        help="node budget for the exact decomposition "
                             "search; when exhausted the planner degrades "
                             "to the best-found GHD (optimal: no)")
    parser.add_argument("--list", action="store_true",
                        help="describe the registered algorithms and exit")
    args = parser.parse_args(argv)

    if args.list:
        print(describe_algorithms())
        return 0

    try:
        _check_tau(args.tau)
    except ReproError as exc:
        parser.error(str(exc))

    from .algorithms.allen import parse_predicate

    try:
        predicate_atoms = parse_predicate(args.predicate)
    except ReproError as exc:
        parser.error(str(exc))

    if args.parse is not None:
        query = JoinQuery.parse(args.parse)
        for name in query.edge_names:
            if len(query.edge(name)) != 2:
                parser.error(
                    "--parse queries must have binary edges (the synthetic "
                    f"generator's constraint); {name} has {query.edge(name)}"
                )
    else:
        query = FAMILIES[args.query]()
    config = SyntheticConfig(n_dangling=args.dangling, n_results=args.results)
    database = generate(query, config)
    n = query.input_size(database)

    if args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")

    label = "custom query" if args.parse is not None else args.query
    print(f"Workload: synthetic {label}, N = {n} tuples, tau = {args.tau:g}")
    if predicate_atoms != ("overlaps",):
        print(
            f"Predicate: {args.predicate} (lazy-sweep binary engine; "
            "algorithms without a predicate path report not applicable)"
        )
    if args.workers is not None:
        print(
            f"Parallel: {args.workers} shards, by key or by time "
            f"({args.parallel_mode} mode, exactly-once merge)"
        )
    print()
    if args.planner_budget is not None and args.planner_budget < 1:
        parser.error(f"--planner-budget must be >= 1, got {args.planner_budget}")

    print("Figure 7 planner decision")
    print("-" * 40)
    print(
        plan(
            query, cache=args.plan_cache, budget=args.planner_budget
        ).explain()
    )
    print()
    print("Cost-based advisor (data-aware, Section 6.3 future work)")
    print("-" * 40)
    print(advise(query, database).explain())
    print()

    # "auto" first: the route temporal_join takes by default (the planner's
    # pick, with the semijoin pass before HYBRID).
    algorithms = (
        [args.algorithm]
        if args.algorithm
        else ["auto"] + [a for a in available_algorithms() if a != "naive"]
    )
    print("Execution")
    print("-" * 40)
    reference = None
    profiles = []
    run_kwargs = {}
    if args.workers is not None:
        run_kwargs = {"workers": args.workers, "parallel_mode": args.parallel_mode}
    if predicate_atoms != ("overlaps",):
        run_kwargs["predicate"] = args.predicate
    if args.prepared:
        from .kernels.prepared import prepare

        start = time.perf_counter()
        artifact = prepare(database, plan_cache=args.plan_cache)
        print(
            f"Prepared columns: {artifact.columns.n_rows} rows interned, "
            f"ranked and event-sorted once in "
            f"{(time.perf_counter() - start) * 1e3:.1f} ms; kernel-path "
            "algorithms below reuse the artifact"
        )
        print()
        run_kwargs["prepared"] = artifact
    for name in algorithms:
        start = time.perf_counter()
        try:
            result = temporal_join(
                query, database, tau=args.tau, algorithm=name, **run_kwargs
            )
        except ReproError as exc:
            print(f"{name:>16}: not applicable ({exc})")
            continue
        elapsed = time.perf_counter() - start
        status = ""
        if reference is None:
            reference = result.normalized()
        elif result.normalized() != reference:
            status = "  !! RESULT MISMATCH"
        print(f"{name:>16}: {len(result):>8} results in {elapsed * 1e3:9.1f} ms{status}")
        if args.stats:
            stats = ExecutionStats()
            temporal_join(
                query, database, tau=args.tau, algorithm=name,
                stats=stats, **run_kwargs,
            )
            profiles.append((name, stats))

    if profiles:
        print()
        print("Execution counters (separate instrumented run per algorithm)")
        print("-" * 40)
        for name, stats in profiles:
            print(f"[{name}]")
            rendered = stats.render()
            print("\n".join("  " + line for line in rendered.splitlines()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
