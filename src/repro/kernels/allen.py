"""Rank-space Allen-predicate binary joins over kernel columns.

The kernel counterpart of :func:`repro.algorithms.binary.binary_temporal_join`
for the predicates the program sweeps: those with an ``overlaps``,
``before``, ``during`` or ``contains`` atom. A predicate made only of
endpoint-fixing atoms (``meets``, ``starts``, ``finishes``, ``equals``
and their converses) never reaches this module from the registry: it
runs :func:`repro.algorithms.allen.endpoint_hash_join` over the stored
rows instead. Here both relations' endpoints already live in the
shared rank space of a :class:`~repro.kernels.columns.KernelColumns`
bundle, and rank compression preserves *both* order and equality — so
every atom of a swept predicate (its equality-shaped members
included) evaluates exactly on the dense int ranks, with no float
comparisons anywhere in the sweep. Values stay interned until one
de-intern pass at emission, so each row carries the representative
interning kept; no object rows are touched (the
``kernel-no-object-rows`` rule holds here as everywhere in
:mod:`repro.kernels`).

With ``prepared=`` the per-call intern/rank/sort cost disappears
entirely: the sweep runs straight over the artifact's cached columns,
so switching a standing workload between predicates costs only the
sweep itself.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..algorithms.allen import lazy_sweep_pairs_ranked, parse_predicate, record_sweeps
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..obs import NULL_TRACER, Tracer
from .columns import build_columns, deintern_results

Triple = Tuple[int, int, int]


def kernel_predicate_join(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    predicate: str,
    stats: Optional[Tracer] = None,
    prepared=None,
) -> JoinResultSet:
    """Binary Allen-predicate join on the kernel substrate.

    ``query`` must have exactly two edges (the registry validates this
    before dispatching here). Rows are grouped by the interned
    shared-attribute key — interning is per attribute *domain*, so equal
    values in different relations share one code and the group keys
    compare exactly — and each key group runs one rank-space lazy sweep.
    Returns de-interned results in ``query.attrs`` order; durability
    filtering stays with the caller (predicate joins filter the emitted
    pair interval rather than shrinking inputs). The ``allen.*``
    counters are the key groups' totals, recorded once.
    """
    stats = NULL_TRACER if stats is None else stats
    atoms = parse_predicate(predicate)
    left_name, right_name = query.edge_names
    if prepared is not None:
        columns = prepared.columns_for(query, 0, stats=stats)
    else:
        bound = query.relations_of(database)
        columns = build_columns(
            {left_name: bound[left_name], right_name: bound[right_name]}, stats
        )

    left_attrs = query.hypergraph.edge(left_name)
    right_attrs = query.hypergraph.edge(right_name)
    shared = [a for a in left_attrs if a in set(right_attrs)]
    left_key_pos = [left_attrs.index(a) for a in shared]
    right_key_pos = [right_attrs.index(a) for a in shared]

    # Output layout: every query attribute reads from the left row when
    # the left edge carries it, from the right row otherwise.
    sources: List[Tuple[bool, int]] = []
    for a in query.attrs:
        if a in left_attrs:
            sources.append((True, left_attrs.index(a)))
        else:
            sources.append((False, right_attrs.index(a)))

    left_groups: Dict[Tuple[int, ...], List[Triple]] = {}
    right_groups: Dict[Tuple[int, ...], List[Triple]] = {}
    row_relation = columns.row_relation
    row_values = columns.row_values
    row_lo = columns.row_lo
    row_hi = columns.row_hi
    for rid in range(columns.n_rows):
        rel = row_relation[rid]
        values = row_values[rid]
        if rel == left_name:
            key = tuple(values[p] for p in left_key_pos)
            left_groups.setdefault(key, []).append((rid, row_lo[rid], row_hi[rid]))
        elif rel == right_name:
            key = tuple(values[p] for p in right_key_pos)
            right_groups.setdefault(key, []).append((rid, row_lo[rid], row_hi[rid]))

    out = JoinResultSet(query.attrs)
    append = out.append
    times = columns.rank_times
    if len(left_groups) > len(right_groups):
        keys = (k for k in right_groups if k in left_groups)
    else:
        keys = (k for k in left_groups if k in right_groups)
    groups = items = peak = 0
    for key in keys:
        left, right = left_groups[key], right_groups[key]
        pairs, group_peak = lazy_sweep_pairs_ranked(left, right, times, atoms)
        groups += 1
        items += len(left) + len(right)
        peak = max(peak, group_peak)
        for lrid, rrid, interval in pairs:
            lvals = row_values[lrid]
            rvals = row_values[rrid]
            append(
                tuple(
                    lvals[p] if from_left else rvals[p]
                    for from_left, p in sources
                ),
                interval,
            )
    if groups:
        record_sweeps(stats, items, items, peak, groups * len(atoms), len(out))
    return deintern_results(columns.domains, out)
