"""GenericJoin: a worst-case optimal multi-way join (NPRR / Leapfrog style).

``GENERICJOIN(Q, R)`` runs in ``O(N^ρ)`` for any join query (Ngo et al.
[65, 66]); the paper uses it to materialize GHD bags (Algorithms 4–6) and
as the subgraph-matching engine behind JOINFIRST.

The implementation binds attributes one at a time along a global order.
At each level, the candidate values are the intersection of the next-value
sets offered by every relation whose schema intersects the bound prefix at
that attribute; the intersection iterates the *smallest* candidate set and
probes the others — the step that yields worst-case optimality.

Relations are accessed through :class:`~repro.datastructures.trie.RelationTrie`
instances built per (relation, attribute-order) pair.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from ..core.errors import InvariantError
from ..core.hypergraph import Hypergraph
from ..core.relation import TemporalRelation
from ..datastructures.trie import RelationTrie

Values = Tuple[object, ...]


def choose_attribute_order(hg: Hypergraph) -> List[str]:
    """A connected attribute order: greedily extend by edge adjacency.

    Any order is correct; orders that keep consecutive attributes inside
    common edges prune earlier. We start from the attribute with the
    highest edge degree and grow the order by adjacency.
    """
    attrs = list(hg.attrs)
    if not attrs:
        return []
    degree = {a: len(hg.edges_of(a)) for a in attrs}
    order = [max(attrs, key=lambda a: (degree[a], a))]
    chosen = {order[0]}
    while len(order) < len(attrs):
        frontier: List[str] = []
        for a in attrs:
            if a in chosen:
                continue
            # adjacent to a chosen attribute through some edge?
            for name in hg.edges_of(a):
                if chosen & set(hg.edge(name)):
                    frontier.append(a)
                    break
        pool = frontier or [a for a in attrs if a not in chosen]
        nxt = max(pool, key=lambda a: (degree[a], a))
        order.append(nxt)
        chosen.add(nxt)
    return order


class _EdgePlan:
    """Precomputed per-edge state for one global attribute order."""

    __slots__ = ("name", "attrs_in_order", "level_of", "trie")

    def __init__(
        self,
        name: str,
        edge_attrs: Sequence[str],
        order: Sequence[str],
        relation: TemporalRelation,
    ) -> None:
        self.name = name
        order_pos = {a: i for i, a in enumerate(order)}
        self.attrs_in_order: List[str] = sorted(edge_attrs, key=lambda a: order_pos[a])
        # level_of[k] = global level at which this edge binds its k-th attr
        self.level_of: List[int] = [order_pos[a] for a in self.attrs_in_order]
        rel_pos = relation.positions(self.attrs_in_order)
        self.trie = RelationTrie(
            self.attrs_in_order,
            (
                (tuple(values[p] for p in rel_pos), interval)
                for values, interval in relation
            ),
        )


def generic_join(
    hg: Hypergraph,
    database: Mapping[str, TemporalRelation],
    order: Optional[Sequence[str]] = None,
) -> List[Values]:
    """All non-temporal join result tuples, in ``order`` attribute layout.

    ``database`` binds each hyperedge name to a relation whose attribute
    set equals the edge's. Returns value tuples aligned with the attribute
    order actually used (returned order == ``order`` or the automatically
    chosen one — call :func:`choose_attribute_order` yourself if you need
    to know it; or use :func:`generic_join_with_order`).
    """
    results, _ = generic_join_with_order(hg, database, order)
    return results


def generic_join_with_order(
    hg: Hypergraph,
    database: Mapping[str, TemporalRelation],
    order: Optional[Sequence[str]] = None,
) -> Tuple[List[Values], List[str]]:
    """Like :func:`generic_join` but also returns the attribute order used."""
    attr_order = list(order) if order is not None else choose_attribute_order(hg)
    plans = [
        _EdgePlan(name, hg.edge(name), attr_order, database[name])
        for name in hg.edge_names
    ]
    # Fast exit on any empty relation.
    if any(len(p.trie) == 0 for p in plans):
        return [], attr_order

    # For every level, which edges constrain the attribute at that level,
    # and how deep their own prefix is at that point.
    n_levels = len(attr_order)
    constraining: List[List[Tuple[_EdgePlan, int]]] = [[] for _ in range(n_levels)]
    for plan in plans:
        for k, level in enumerate(plan.level_of):
            constraining[level].append((plan, k))

    results: List[Values] = []
    binding: List[object] = [None] * n_levels

    def extend(level: int) -> None:
        if level == n_levels:
            results.append(tuple(binding))
            return
        cons = constraining[level]
        if not cons:  # attribute in no edge: impossible by construction
            return
        # Build each constraining edge's prefix from the current binding.
        prefixes: List[Tuple[_EdgePlan, Values]] = []
        for plan, k in cons:
            prefix = tuple(binding[plan.level_of[i]] for i in range(k))
            prefixes.append((plan, prefix))
        # Smallest candidate set drives the intersection.
        best_idx = 0
        best_count = None
        for i, (plan, prefix) in enumerate(prefixes):
            count = plan.trie.candidate_count(prefix)
            if count == 0:
                return
            if best_count is None or count < best_count:
                best_count = count
                best_idx = i
        driver_plan, driver_prefix = prefixes[best_idx]
        candidates = driver_plan.trie.candidate_values(driver_prefix)
        if candidates is None:
            raise InvariantError(
                "trie returned no candidate node for a prefix whose "
                "candidate_count was positive; trie state is inconsistent"
            )
        others = [prefixes[i] for i in range(len(prefixes)) if i != best_idx]
        for value in candidates:
            ok = True
            for plan, prefix in others:
                node = plan.trie.children(prefix)
                if node is None or value not in node:
                    ok = False
                    break
            if ok:
                binding[level] = value
                extend(level + 1)
        binding[level] = None

    extend(0)
    return results, attr_order

