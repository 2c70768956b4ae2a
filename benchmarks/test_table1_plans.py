"""Table 1 + Figure 7: execution plans chosen per query.

Regenerates the paper's Table 1 — the attribute trees / GHDs / (I, J)
partitions each algorithm uses per query — directly from the planner and
decomposition machinery, and checks the structural claims (widths,
partitions, decision-tree outcomes).
"""

import pytest

from repro.core.classification import AttributeTree
from repro.core.planner import plan
from repro.core.query import JoinQuery
from repro.nontemporal.ghd import find_guarded_partition, hhtw_ghd

from conftest import record_report

QUERIES = {
    "Q_L3": JoinQuery.line(3),
    "Q_L4": JoinQuery.line(4),
    "Q_L5": JoinQuery.line(5),
    "Q_S3": JoinQuery.star(3),
    "Q_S4": JoinQuery.star(4),
    "Q_S5": JoinQuery.star(5),
    "Q_C3": JoinQuery.cycle(3),
    "Q_C4": JoinQuery.cycle(4),
    "Q_C5": JoinQuery.cycle(5),
    "Q_bowtie": JoinQuery.bowtie(),
    "Q_hier": JoinQuery.hier(),
}


@pytest.mark.benchmark(group="table1")
def test_table1_execution_plans(benchmark):
    lines = []

    def build():
        lines.clear()
        for name, query in QUERIES.items():
            p = plan(query)
            gp = find_guarded_partition(query.hypergraph)
            _, hghd = hhtw_ghd(query.hypergraph)
            row = [
                f"{name:>9}",
                f"class={p.query_class.value:<14}",
                f"fhtw={p.fhtw:<4g}",
                f"hhtw={p.hhtw:<4g}",
                f"pick={p.algorithm:<16}",
                f"hybrid-GHD: {hghd.pretty()}",
            ]
            if gp is not None:
                row.append(f"(I={','.join(gp.I)} | J={','.join(gp.J)})")
            lines.append("  ".join(row))
        return lines

    benchmark.pedantic(build, rounds=1, iterations=1)
    record_report("table1_plans", "\n".join(lines))

    # Structural assertions pinned to the paper's Table 1 / Figure 7.
    assert plan(QUERIES["Q_S4"]).algorithm == "timefirst"
    assert plan(QUERIES["Q_L4"]).algorithm == "hybrid-interval"
    assert plan(QUERIES["Q_C4"]).algorithm == "hybrid"
    gp = find_guarded_partition(QUERIES["Q_L5"].hypergraph)
    assert set(gp.I) == {"x1", "x6"}
    assert set(gp.J) == {"x2", "x3", "x4", "x5"}


@pytest.mark.benchmark(group="table1")
def test_table1_attribute_trees(benchmark):
    """The TIMEFIRST column for hierarchical queries: attribute trees."""
    chunks = []

    def build():
        chunks.clear()
        for name in ["Q_S3", "Q_S4", "Q_S5", "Q_hier"]:
            tree = AttributeTree(QUERIES[name].hypergraph)
            chunks.append(f"{name}:\n{tree.pretty()}")
        return chunks

    benchmark.pedantic(build, rounds=1, iterations=1)
    record_report("table1_attribute_trees", "\n\n".join(chunks))
    assert all("leaf[" in c for c in chunks)
