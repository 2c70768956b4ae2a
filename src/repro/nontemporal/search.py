"""Exact minimum-width GHD search: branch-and-bound over edge partitions.

The enumeration in :mod:`repro.nontemporal.ghd` visits every set
partition of the edge set — Bell-number growth that hangs beyond ~8
edges. This module finds the same rank-minimal partition GHD by
branch-and-bound in the frasmt solver style: a greedy agglomerative
construction (the partition analogue of a greedy elimination order)
seeds the upper bound, and fractional-cover LP lower bounds prune the
assignment tree until the bound meets the best leaf — or a ``budget``
node / ``time_budget`` knob expires, in which case the best GHD found
so far is returned with ``optimal=False``.

Soundness of the pruning rests on monotonicity: for a *partial* group
with attribute union ``U``, the final bag can only grow, and both

* ``ρ`` of the query's restriction to ``U`` (a fractional cover of the
  larger restriction induces one of the smaller — drop the extra
  attributes' constraints), and
* the bag arity ``|U|``

are monotone in ``U``. Component-wise lower bounds therefore bound the
full :func:`~repro.nontemporal.ghd._ghd_rank` tuple lexicographically,
so a subtree is cut only when *every* completion ranks strictly worse
than the incumbent. Because the tree enumerates restricted-growth
strings in the same order as ``_set_partitions`` and the incumbent is
replaced only on strict rank improvement, a completed search returns
the *identical* GHD the exhaustive enumeration would pick — the
Figure-6/Table-1 shape pins survive the engine swap, and the optimality
oracle tests cross-check widths against enumeration on small queries.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import List, Optional, Set, Tuple

from ..core.errors import QueryError
from ..core.hypergraph import Hypergraph
from .cover import rho
from .ghd import GHD, _ghd_rank, ghd_from_partition

#: Supported ``search=`` modes for the width functions.
SEARCH_MODES = ("exact", "greedy", "enumerate")

#: In-memory memo entries kept per process (distinct (query, mode) keys).
MEMO_SIZE = 512


@dataclass
class SearchResult:
    """Outcome of one minimum-width decomposition search.

    ``nodes`` counts branch-and-bound states expanded (partition leaves
    examined, for the enumeration mode); a memo hit reports 0 — no new
    work happened. ``optimal`` is False only when a budget expired
    before the search space was exhausted, in which case ``width`` is an
    upper bound achieved by ``ghd`` and ``reason`` says which knob ran
    out.
    """

    width: float
    ghd: GHD
    optimal: bool
    nodes: int
    lb_prunes: int
    mode: str
    reason: Optional[str] = None


# ----------------------------------------------------------------------
# Greedy upper bound
# ----------------------------------------------------------------------
def greedy_ghd(hg: Hypergraph, hierarchical: bool = False) -> GHD:
    """A valid (optionally hierarchical) partition GHD, greedily.

    Starts from the trivial one-bag-per-edge partition and repeatedly
    merges the pair of groups sharing the most attributes (ties: the
    smaller merged bag, then declaration order) until the candidate is a
    GHD — and hierarchical, when requested. The single-group partition
    is always both, so at most ``m - 1`` merges terminate the loop. The
    result seeds the branch-and-bound upper bound; it carries no
    optimality claim of its own.
    """
    groups: List[List[str]] = [[name] for name in hg.edge_names]
    attrs: List[Set[str]] = [set(hg.edge(name)) for name in hg.edge_names]
    while True:
        ghd = ghd_from_partition(hg, groups)
        if ghd is not None and (not hierarchical or ghd.is_hierarchical()):
            return ghd
        best_pair: Optional[Tuple[int, int]] = None
        best_key: Optional[Tuple[int, int]] = None
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                shared = len(attrs[i] & attrs[j])
                key = (-shared, len(attrs[i] | attrs[j]))
                if best_key is None or key < best_key:
                    best_key = key
                    best_pair = (i, j)
        if best_pair is None:  # pragma: no cover - single group is valid
            raise QueryError(f"greedy merge found no pair for {hg!r}")
        i, j = best_pair
        groups[i] = groups[i] + groups[j]
        attrs[i] = attrs[i] | attrs[j]
        del groups[j], attrs[j]


# ----------------------------------------------------------------------
# Exact branch-and-bound
# ----------------------------------------------------------------------
def _restriction_rho(hg: Hypergraph, bag_attrs: Set[str]) -> float:
    """ρ of every query edge restricted to ``bag_attrs`` (Definition 8).

    This is exactly the final bag width when ``bag_attrs`` is a leaf
    bag, and a lower bound on it for any partial group (monotonicity).
    Results are memoized per derived hypergraph through :func:`rho`'s
    own cache.
    """
    derived = {}
    for name in hg.edge_names:
        restricted = tuple(a for a in hg.edge(name) if a in bag_attrs)
        if restricted:
            derived[name] = restricted
    return rho(Hypergraph(derived))


class _Budget:
    """Node/time budget shared across one branch-and-bound run."""

    __slots__ = ("nodes", "deadline", "used", "reason")

    def __init__(
        self, nodes: Optional[int], time_budget: Optional[float]
    ) -> None:
        self.nodes = nodes
        self.deadline = (
            None if time_budget is None else time.perf_counter() + time_budget
        )
        self.used = 0
        self.reason: Optional[str] = None

    def spend(self) -> bool:
        """Account one search node; True while the search may continue."""
        self.used += 1
        if self.nodes is not None and self.used >= self.nodes:
            self.reason = f"node budget ({self.nodes}) exhausted"
            return False
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.reason = "time budget exhausted"
            return False
        return True


def exact_ghd_search(
    hg: Hypergraph,
    hierarchical: bool = False,
    budget: Optional[int] = None,
    time_budget: Optional[float] = None,
) -> SearchResult:
    """Minimum-rank partition GHD by branch-and-bound.

    Explores edge-to-group assignments in restricted-growth order (the
    same order ``_set_partitions`` enumerates), pruning a partial
    assignment when its component-wise lower-bound tuple — max group
    ``ρ`` restriction, max bag arity, total assigned arity, bag count —
    already ranks strictly worse than the incumbent. The greedy GHD
    seeds the bound; the incumbent itself is only ever replaced by a
    leaf of the tree, so a completed run reproduces the enumeration's
    winner exactly (including its tie-breaks).
    """
    seed = greedy_ghd(hg, hierarchical=hierarchical)
    seed_rank = _ghd_rank(seed)
    edge_names = list(hg.edge_names)
    m = len(edge_names)
    edge_attrs = [set(hg.edge(name)) for name in edge_names]

    best: Optional[GHD] = None
    best_rank = seed_rank
    bud = _Budget(budget, time_budget)
    prunes = 0
    exhausted = False

    # DFS stacks: current groups as (edge list, attr union, rho bound).
    groups: List[List[str]] = []
    unions: List[Set[str]] = []
    rhos: List[float] = []

    def dfs(i: int) -> None:
        nonlocal best, best_rank, prunes, exhausted
        if exhausted:
            return
        if i == m:
            ghd = ghd_from_partition(hg, [list(g) for g in groups])
            if ghd is None:
                return
            if hierarchical and not ghd.is_hierarchical():
                return
            rank = _ghd_rank(ghd)
            if rank < best_rank or (best is None and rank <= best_rank):
                best = ghd
                best_rank = rank
            return
        remaining = m - i - 1
        for g in range(len(groups) + 1):
            if exhausted:
                return
            if not bud.spend():
                exhausted = True
                return
            if g == len(groups):
                groups.append([edge_names[i]])
                unions.append(set(edge_attrs[i]))
                rhos.append(_restriction_rho(hg, unions[-1]))
            else:
                groups[g].append(edge_names[i])
                prev_union = unions[g]
                prev_rho = rhos[g]
                merged = prev_union | edge_attrs[i]
                unions[g] = merged
                rhos[g] = (
                    prev_rho
                    if merged == prev_union
                    else _restriction_rho(hg, merged)
                )
            lb = (
                max(rhos),
                max(
                    max(len(u) for u in unions),
                    max((len(edge_attrs[j]) for j in range(i + 1, m)), default=0),
                ),
                sum(len(u) for u in unions),
                -(len(groups) + remaining),
            )
            if lb > best_rank:
                prunes += 1
            else:
                dfs(i + 1)
            if g == len(groups) - 1 and len(groups[g]) == 1:
                groups.pop()
                unions.pop()
                rhos.pop()
            else:
                groups[g].pop()
                unions[g] = prev_union
                rhos[g] = prev_rho

    dfs(0)

    if best is None:
        # Budget died before any leaf was reached: fall back to the seed.
        best = seed
        best_rank = seed_rank
    return SearchResult(
        width=best_rank[0],
        ghd=best,
        optimal=not exhausted,
        nodes=bud.used,
        lb_prunes=prunes,
        mode="exact",
        reason=bud.reason,
    )


# ----------------------------------------------------------------------
# Mode dispatch and memoization
# ----------------------------------------------------------------------
_MEMO: "OrderedDict[Tuple[Hypergraph, bool, str], SearchResult]" = OrderedDict()


def clear_search_memo() -> None:
    """Drop the in-process memo (cold-start measurement / tests)."""
    _MEMO.clear()


def _memo_store(key, result: SearchResult) -> None:
    _MEMO[key] = result
    while len(_MEMO) > MEMO_SIZE:
        _MEMO.popitem(last=False)


def min_width_ghd(
    hg: Hypergraph,
    hierarchical: bool = False,
    search: str = "exact",
    budget: Optional[int] = None,
    time_budget: Optional[float] = None,
) -> SearchResult:
    """Minimum-width (optionally hierarchical) partition GHD of ``hg``.

    ``search`` selects the engine: ``"exact"`` (branch-and-bound,
    default), ``"greedy"`` (upper bound only, ``optimal=False``) or
    ``"enumerate"`` (the legacy exhaustive scan, guarded against
    Bell-number blowup). Completed results are memoized per process and
    replayed with ``nodes=0`` — the persistent cross-process cache lives
    in :mod:`repro.core.plancache`, not here. Budget-truncated exact
    results are *not* memoized, so a later unbudgeted call still proves
    optimality.
    """
    if search not in SEARCH_MODES:
        raise QueryError(
            f"unknown search mode {search!r}; expected one of {SEARCH_MODES}"
        )
    key = (hg, hierarchical, search)
    cached = _MEMO.get(key)
    if cached is not None:
        return replace(cached, nodes=0, lb_prunes=0)
    if search == "exact":
        result = exact_ghd_search(
            hg, hierarchical=hierarchical, budget=budget, time_budget=time_budget
        )
    elif search == "greedy":
        ghd = greedy_ghd(hg, hierarchical=hierarchical)
        result = SearchResult(
            width=ghd.width(),
            ghd=ghd,
            optimal=False,
            nodes=0,
            lb_prunes=0,
            mode="greedy",
            reason="greedy construction carries no optimality proof",
        )
    else:
        result = _enumerate_search(hg, hierarchical)
    if result.optimal or search == "greedy":
        _memo_store(key, result)
    return result


def _enumerate_search(hg: Hypergraph, hierarchical: bool) -> SearchResult:
    """The legacy exhaustive scan, wrapped in a :class:`SearchResult`."""
    from .ghd import enumerate_partition_ghds

    best: Optional[Tuple[Tuple[float, int, int, int], GHD]] = None
    nodes = 0
    for ghd in enumerate_partition_ghds(hg):
        nodes += 1
        if hierarchical and not ghd.is_hierarchical():
            continue
        rank = _ghd_rank(ghd)
        if best is None or rank < best[0]:
            best = (rank, ghd)
    if best is None:  # pragma: no cover - the single-bag partition qualifies
        raise QueryError(f"no partition GHD found for {hg!r}")
    return SearchResult(
        width=best[0][0],
        ghd=best[1],
        optimal=True,
        nodes=nodes,
        lb_prunes=0,
        mode="enumerate",
    )
