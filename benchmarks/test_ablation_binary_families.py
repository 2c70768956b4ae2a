"""Ablation: the binary interval-join strategies inside BASELINE.

The paper's BASELINE adopts the forward scan "experimentally verified
as the most efficient temporal join algorithm"; the repository's
default binary join is the lazy endpoint sweep of Piatov et al. This
bench runs the same BASELINE plan with each registered strategy on a
dense-overlap and a sparse-overlap workload. The index and sort-merge
families it once also measured were retired after losing to the lazy
sweep on both workloads.
"""

import time

import pytest

from repro.algorithms.baseline import baseline_join
from repro.bench.harness import Measurement
from repro.bench.reporting import render_table
from repro.core.query import JoinQuery
from repro.workloads.synthetic import SyntheticConfig, generate
from repro.workloads import ldbc
from repro.core.query import self_join_database

from conftest import record_report

STRATEGIES = ["forward-scan", "lazy-sweep"]


def dense_workload():
    q = JoinQuery.line(3)
    return q, generate(q, SyntheticConfig(n_dangling=250, n_results=60, seed=17))


def sparse_workload():
    q = JoinQuery.line(3)
    rel = ldbc.knows_relation(
        ldbc.LDBCConfig(n_persons=200, n_knows=350, delete_fraction=0.8, seed=4)
    )
    return q, self_join_database(q, rel)


@pytest.mark.benchmark(group="ablation")
def test_binary_join_families(benchmark):
    rows = {}

    def run():
        for label, builder in [("dense", dense_workload), ("sparse", sparse_workload)]:
            query, db = builder()
            cells = []
            counts = set()
            for strategy in STRATEGIES:
                best = float("inf")
                for _ in range(2):
                    start = time.perf_counter()
                    out = baseline_join(query, db, binary_strategy=strategy)
                    best = min(best, time.perf_counter() - start)
                counts.add(len(out))
                cells.append(
                    Measurement(
                        algorithm=strategy, seconds=best, peak_bytes=0,
                        result_count=len(out), input_size=query.input_size(db),
                        tau=0,
                    )
                )
            assert len(counts) == 1, (label, counts)
            rows[label] = cells
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    record_report(
        "ablation_binary_families",
        render_table(
            "BASELINE with each binary interval-join strategy",
            rows, metric="seconds", x_label="overlap profile",
        ),
    )
    # The forward scan should never be the clear loser (the paper's
    # reason for adopting it); allow generous noise.
    for label, cells in rows.items():
        by = {m.algorithm: m.seconds for m in cells}
        slowest = max(by.values())
        assert by["forward-scan"] <= slowest + 1e-9
        assert by["forward-scan"] < 3 * min(by.values()), (label, by)
