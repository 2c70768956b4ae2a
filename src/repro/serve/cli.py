"""``python -m repro serve`` — drive the standing-query service from the shell.

Builds one of the paper's workloads (or an ad-hoc query), registers a
small standing-query fleet over it — the primary template, a
sub-template sharing its relations, and a duplicate of the primary to
exercise template dedup — then streams the stored database through the
service in a single shared ingest pass and prints the per-query SLO
report. A zero-setup tour of :mod:`repro.serve`, the streaming analogue
of the offline demo in :mod:`repro.__main__`.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence, Tuple

from ..core.errors import ReproError
from ..core.query import JoinQuery, self_join_database
from ..serve import Backpressure, TemporalJoinService

Fleet = List[Tuple[str, JoinQuery, float]]


def _tpce_workload(n: int, tau: float):
    from ..workloads import tpce

    tau = 170.0 if tau is None else tau
    config = tpce.TPCEConfig(
        n_customers=max(40, n // 6), n_securities=max(12, n // 40),
        hot_securities=max(3, n // 200), n_holdings=n, seed=170,
    )
    database = tpce.star_database(tpce.generate_holdings(config), 3)
    fleet = [
        ("star3", tpce.star_query(3), tau),
        ("star2", tpce.star_query(2), tau),
        ("star3-dup", tpce.star_query(3), tau),
    ]
    return f"TPC-E star self-join (tau={tau:g})", database, fleet


def _ldbc_workload(n: int, tau: float):
    from ..workloads import ldbc

    tau = 11.0 if tau is None else tau
    config = ldbc.LDBCConfig(n_persons=max(40, n // 5), n_knows=n // 2, seed=11)
    database = self_join_database(JoinQuery.line(3), ldbc.knows_relation(config))
    fleet = [
        ("line3", JoinQuery.line(3), tau),
        ("line2", JoinQuery({"R1": ("x1", "x2"), "R2": ("x2", "x3")}), tau),
        ("line3-dup", JoinQuery.line(3), tau),
    ]
    return f"LDBC-SNB knows 3-chain (tau={tau:g})", database, fleet


def _synthetic_workload(n: int, tau: float):
    from ..workloads.synthetic import SyntheticConfig, generate

    tau = 0.0 if tau is None else tau
    query = JoinQuery.line(3)
    database = generate(
        query, SyntheticConfig(n_dangling=max(10, n // 4), n_results=40)
    )
    fleet = [
        ("line3", query, tau),
        ("line2", JoinQuery({"R1": ("x1", "x2"), "R2": ("x2", "x3")}), tau),
        ("line3-dup", query, tau),
    ]
    return f"synthetic line3 (tau={tau:g})", database, fleet


WORKLOADS = {
    "ldbc": _ldbc_workload,
    "tpce": _tpce_workload,
    "synthetic": _synthetic_workload,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Standing-query streaming service demo "
                    "(one shared ingest pass, N standing queries)",
    )
    parser.add_argument(
        "workload", nargs="?", default="ldbc", choices=sorted(WORKLOADS),
        help="workload to stream (default: ldbc)",
    )
    parser.add_argument("--n", type=int, default=600,
                        help="workload size knob (default 600)")
    parser.add_argument("--tau", type=float, default=None,
                        help="durability threshold (default: the workload's "
                             "paper value — 11 for ldbc, 170 for tpce)")
    parser.add_argument("--policy", default=Backpressure.DROP_OLDEST,
                        choices=Backpressure.ALL,
                        help="buffer backpressure policy for the fleet "
                             "(default drop-oldest; the demo has no "
                             "concurrent consumer)")
    parser.add_argument("--buffer-size", type=int, default=1024)
    parser.add_argument("--verify", action="store_true",
                        help="cross-check every snapshot against the "
                             "offline temporal_join")
    parser.add_argument("--stats", action="store_true",
                        help="print the merged serve.* telemetry")
    parser.add_argument("--plan-cache", default=None, metavar="DIR",
                        help="persistent plan-cache directory backing the "
                             "fleet's template dedup (created on first use)")
    args = parser.parse_args(argv)

    try:
        label, database, fleet = WORKLOADS[args.workload](args.n, args.tau)
    except ReproError as exc:
        parser.error(str(exc))

    from ..core.planner import hypergraph_signature

    n = sum(len(rel) for rel in database.values())
    templates = {hypergraph_signature(q) for _, q, _ in fleet}
    print(f"Workload: {label}, N = {n} tuples")
    print(f"Fleet: {len(fleet)} standing queries over {len(templates)} "
          "distinct templates, one shared ingest pass")
    print()

    service = TemporalJoinService(plan_cache=args.plan_cache)
    handles = []
    for name, query, tau in fleet:
        handles.append(
            service.register(
                query, tau=tau, name=name,
                policy=args.policy, buffer_size=args.buffer_size,
            )
        )
    service.ingest_database(database)

    print("Per-query SLO report")
    print("-" * 40)
    print(service.slo_report())

    if args.verify:
        from ..algorithms.registry import temporal_join

        print()
        print("Offline cross-check")
        print("-" * 40)
        failures = 0
        for handle, (_, query, tau) in zip(handles, fleet):
            sub = {name: database[name] for name in query.edge_names}
            offline = temporal_join(query, sub, tau=tau)
            served = handle.snapshot().results
            ok = served.normalized() == offline.normalized()
            failures += not ok
            print(f"{handle.name:>12}: {len(served):>7} served vs "
                  f"{len(offline):>7} offline  {'ok' if ok else 'MISMATCH'}")
        if failures:
            return 1

    if args.stats:
        print()
        print("Telemetry (service + per-query, merged)")
        print("-" * 40)
        print(service.telemetry().render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
