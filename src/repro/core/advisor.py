"""A cost-based, data-aware algorithm advisor (the paper's future work).

Section 6.3 closes with: "An important avenue for future work would be a
cost-based optimizer that is aware of both query structure and the
underlying data characteristics, and can make intelligent decisions on
the best algorithm to use — be it one of the algorithms in our toolbox,
or just BASELINE, or JOINFIRST — for a given occasion."

This module implements that optimizer as a lightweight advisor. The
Figure 7 planner (:mod:`repro.core.planner`) decides from the *query*
alone; the advisor additionally samples the *data*:

* per-join value multiplicities (System-R style distinct counts);
* *temporal selectivity* — the probability that a value-matching pair of
  tuples also overlaps in time, estimated by sampling matching pairs;
* the AGM bound on the non-temporal result size (JOINFIRST's cost);
* the final result size, estimated by pushing temporal selectivities
  through the cheapest join order.

Costs are abstract "row touches" scaled by per-algorithm constants that
reflect this library's measured per-row overheads; the advisor's job is
ranking, not absolute prediction. The test-suite checks the advisor
against ground truth on the regimes the paper discusses (Section 6.3's
summary): BASELINE on low-multiplicity TPC-style data, the toolkit on
dangling-heavy data, JOINFIRST on small non-temporal outputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from ..nontemporal.cover import agm_bound
from ..nontemporal.ghd import fhtw_ghd, find_guarded_partition, hhtw_ghd
from ..nontemporal.hash_join import shared_attrs
from .planner import plan
from .query import JoinQuery
from .relation import TemporalRelation

# Per-row cost constants (empirical, this library, CPython): the sweep
# pays more per event than a binary join pays per emitted row.
# ``timefirst_event_kernel`` is the same sweep on the columnar kernel
# engine (repro.kernels) — interning and the flat event loop cut the
# per-event constant by the measured kernel speedup (~2.2×, the
# ``kernels`` suite of BENCH_gates.json).
_COST = {
    "baseline_row": 1.0,
    "timefirst_event": 8.0,
    "timefirst_event_kernel": 3.6,
    "hybrid_bag_row": 3.0,
    "hybrid_interval_core": 4.0,
    "joinfirst_match": 1.2,
    "output_row": 1.0,
}


@dataclass
class AlgorithmCost:
    """One candidate with its estimated abstract cost."""

    algorithm: str
    cost: float
    detail: str


@dataclass
class Advice:
    """Ranked recommendation for one (query, database) pair."""

    query: JoinQuery
    ranked: List[AlgorithmCost]
    estimated_output: float
    temporal_selectivities: Dict[Tuple[str, str], float]

    @property
    def best(self) -> str:
        return self.ranked[0].algorithm

    def explain(self) -> str:
        lines = [
            f"query            : {self.query!r}",
            f"estimated output : {self.estimated_output:,.0f}",
        ]
        for (a, b), sel in sorted(self.temporal_selectivities.items()):
            lines.append(f"overlap({a}, {b})  : {sel:.2f}")
        lines.append("ranking (abstract row-touch cost):")
        for entry in self.ranked:
            lines.append(
                f"  {entry.algorithm:>16}: {entry.cost:>12,.0f}  ({entry.detail})"
            )
        return "\n".join(lines)


def advise(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    sample_size: int = 200,
    seed: int = 0,
) -> Advice:
    """Rank the applicable algorithms by estimated cost on this data."""
    query.validate(database)
    rng = random.Random(seed)
    n_total = query.input_size(database)
    hg = query.hypergraph

    # ------------------------------------------------------------------
    # Data statistics
    # ------------------------------------------------------------------
    pair_stats: Dict[Tuple[str, str], Tuple[float, float]] = {}
    selectivities: Dict[Tuple[str, str], float] = {}
    names = query.edge_names
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            on = shared_attrs(database[a], database[b])
            if not on:
                continue
            size, sel = _estimate_pair(
                database[a], database[b], on, rng, sample_size
            )
            pair_stats[(a, b)] = (size, sel)
            selectivities[(a, b)] = sel

    output_estimate = _estimate_output(query, database, pair_stats)
    sizes = {name: len(database[name]) for name in names}
    nontemporal_estimate = min(
        agm_bound(hg, sizes),
        _chain_value_estimate(query, database, pair_stats),
    )

    # ------------------------------------------------------------------
    # Candidate costs
    # ------------------------------------------------------------------
    candidates: List[AlgorithmCost] = []

    baseline_rows = _estimate_baseline_rows(query, database, pair_stats)
    candidates.append(
        AlgorithmCost(
            "baseline",
            _COST["baseline_row"] * baseline_rows
            + _COST["output_row"] * output_estimate,
            f"~{baseline_rows:,.0f} intermediate rows (best estimated order)",
        )
    )

    structural = plan(query)
    event_cost = (
        _COST["timefirst_event_kernel"]
        if structural.engine == "kernel"
        else _COST["timefirst_event"]
    )
    sweep_cost = event_cost * n_total * (
        1.0 if structural.query_class.value in ("hierarchical", "r-hierarchical")
        else 2.5
    )
    candidates.append(
        AlgorithmCost(
            "timefirst",
            sweep_cost + _COST["output_row"] * output_estimate,
            f"{n_total:,} input tuples swept "
            f"({structural.query_class.value}, {structural.engine} engine)",
        )
    )

    hybrid_bag_rows = _estimate_hybrid_bags(query, database, pair_stats)
    candidates.append(
        AlgorithmCost(
            "hybrid",
            _COST["hybrid_bag_row"] * hybrid_bag_rows
            + _COST["timefirst_event"] * hybrid_bag_rows
            + _COST["output_row"] * output_estimate,
            f"~{hybrid_bag_rows:,.0f} materialized bag rows",
        )
    )

    if find_guarded_partition(hg) is not None:
        candidates.append(
            AlgorithmCost(
                "hybrid-interval",
                _COST["hybrid_interval_core"] * n_total
                + _COST["output_row"] * output_estimate,
                "guarded partition: core join + interval-join residuals",
            )
        )

    candidates.append(
        AlgorithmCost(
            "joinfirst",
            _COST["joinfirst_match"] * nontemporal_estimate
            + _COST["output_row"] * output_estimate,
            f"~{nontemporal_estimate:,.0f} non-temporal matches enumerated",
        )
    )

    candidates.sort(key=lambda c: c.cost)
    return Advice(
        query=query,
        ranked=candidates,
        estimated_output=output_estimate,
        temporal_selectivities=selectivities,
    )


# ----------------------------------------------------------------------
# Estimation internals
# ----------------------------------------------------------------------
def _estimate_pair(
    left: TemporalRelation,
    right: TemporalRelation,
    on: Sequence[str],
    rng: random.Random,
    sample_size: int,
) -> Tuple[float, float]:
    """(value-join size, temporal selectivity) for one relation pair.

    Size uses the System-R formula; selectivity samples value-matching
    pairs through the right side's key index and measures how often the
    intervals actually overlap.
    """
    d = max(left.key_cardinality(on), right.key_cardinality(on), 1)
    size = len(left) * len(right) / d
    groups = right.group_by(on)
    left_pos = left.positions(on)
    rows = left.rows
    if not rows or not groups:
        return size, 0.0
    hits = 0
    trials = 0
    for _ in range(sample_size):
        values, interval = rows[rng.randrange(len(rows))]
        bucket = groups.get(tuple(values[p] for p in left_pos))
        if not bucket:
            continue
        _, other = bucket[rng.randrange(len(bucket))]
        trials += 1
        if interval.intersects(other):
            hits += 1
    if trials == 0:
        return size, 0.0
    return size, hits / trials


def _estimate_output(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    pair_stats: Mapping[Tuple[str, str], Tuple[float, float]],
) -> float:
    """Push value sizes × temporal selectivities through a greedy order."""
    names = list(query.edge_names)
    size = float(len(database[names[0]]))
    joined = {names[0]}
    remaining = names[1:]
    hg = query.hypergraph
    while remaining:
        # pick a connected relation if possible
        nxt = None
        for name in remaining:
            if any(
                set(hg.edge(name)) & set(hg.edge(j)) for j in joined
            ):
                nxt = name
                break
        if nxt is None:
            nxt = remaining[0]
        remaining.remove(nxt)
        factor = 1.0
        combined_sel = 1.0
        best_ratio = float(len(database[nxt]))
        for j in joined:
            key = (j, nxt) if (j, nxt) in pair_stats else (nxt, j)
            if key in pair_stats:
                pair_size, sel = pair_stats[key]
                ratio = pair_size / max(1.0, float(len(database[key[0]])))
                best_ratio = min(best_ratio, ratio)
                combined_sel *= max(sel, 1e-3)
        size = size * best_ratio * combined_sel
        joined.add(nxt)
    return max(size, 0.0)


def _chain_value_estimate(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    pair_stats: Mapping[Tuple[str, str], Tuple[float, float]],
) -> float:
    """Non-temporal output estimate via the same greedy chaining."""
    names = list(query.edge_names)
    size = float(len(database[names[0]]))
    joined = {names[0]}
    hg = query.hypergraph
    for name in names[1:]:
        ratios = []
        for j in joined:
            key = (j, name) if (j, name) in pair_stats else (name, j)
            if key in pair_stats:
                pair_size, _ = pair_stats[key]
                ratios.append(pair_size / max(1.0, float(len(database[key[0]]))))
        size *= min(ratios) if ratios else float(len(database[name]))
        joined.add(name)
    return size


def _estimate_baseline_rows(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    pair_stats: Mapping[Tuple[str, str], Tuple[float, float]],
) -> float:
    """Estimated intermediate rows of the best *temporal-aware* order.

    Unlike BASELINE's own value-only search, the advisor can fold the
    sampled temporal selectivity into each step — which is exactly the
    information Section 6.3 says a cost-based optimizer should use.
    """
    import itertools

    names = query.edge_names
    hg = query.hypergraph
    best = float("inf")
    orders = itertools.permutations(names) if len(names) <= 6 else [tuple(names)]
    for perm in orders:
        covered = set(hg.edge(perm[0]))
        ok = True
        for name in perm[1:]:
            if not (covered & set(hg.edge(name))):
                ok = False
                break
            covered |= set(hg.edge(name))
        if not ok:
            continue
        size = float(len(database[perm[0]]))
        total = 0.0
        joined = [perm[0]]
        for name in perm[1:]:
            ratios = []
            sels = []
            for j in joined:
                key = (j, name) if (j, name) in pair_stats else (name, j)
                if key in pair_stats:
                    pair_size, sel = pair_stats[key]
                    ratios.append(
                        pair_size / max(1.0, float(len(database[key[0]])))
                    )
                    sels.append(max(sel, 1e-3))
            ratio = min(ratios) if ratios else float(len(database[name]))
            sel = min(sels) if sels else 1.0
            size = size * ratio * sel
            total += size
            joined.append(name)
            if total >= best:
                break
        best = min(best, total)
    return best if best < float("inf") else 0.0


def _estimate_hybrid_bags(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    pair_stats: Mapping[Tuple[str, str], Tuple[float, float]],
) -> float:
    """Estimated total materialized bag size for the Theorem-12 GHD."""
    hg = query.hypergraph
    f_width, f_ghd = fhtw_ghd(hg)
    h_width, h_ghd = hhtw_ghd(hg)
    ghd = h_ghd if h_width <= f_width + 1 else f_ghd
    total = 0.0
    for bag, group in ghd.groups.items():
        if len(group) == 1:
            total += float(len(database[group[0]]))
            continue
        size = float(len(database[group[0]]))
        joined = [group[0]]
        for name in group[1:]:
            ratios = []
            for j in joined:
                key = (j, name) if (j, name) in pair_stats else (name, j)
                if key in pair_stats:
                    pair_size, _ = pair_stats[key]
                    ratios.append(
                        pair_size / max(1.0, float(len(database[key[0]])))
                    )
            size *= min(ratios) if ratios else float(len(database[name]))
            joined.append(name)
        total += size
    return total
