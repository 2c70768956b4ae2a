"""Fractional edge covers, ρ(Q), and the AGM bound.

The width of a GHD node (Definition 8) is the optimal fractional edge
covering number ρ of the node's derived hypergraph, i.e. the value of the
LP (3) in the paper:

    min Σ_e x_e   s.t.   x_e ≥ 0,  Σ_{e ∋ v} x_e ≥ 1 for every vertex v.

We solve it with :func:`scipy.optimize.linprog` (HiGHS). HiGHS works in
floating point, so the cover weights carry solver noise; :func:`rho`
rounds the optimum to 6 places, which is exact for the small rationals
(1, 1.5, 2, ...) that constant-size queries have. The AGM bound
``Π_e |R_e|^{x_e}`` on the join output size is provided for the bench
harness and for cost estimates.

scipy is imported at the first uncached solve, not with this module.
``import repro`` reaches this module, and loading ``scipy.optimize`` is
most of a fresh interpreter's import time; most processes (spawn
workers sweeping kernel shards, reads through a warm plan cache, the
CLI's ``--help``, the linter) never search a decomposition, so they
never pay it. Solves are cached per hypergraph, so a process that does
search pays the import once.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Mapping, Tuple

import numpy as np

from ..core.errors import QueryError
from ..core.hypergraph import Hypergraph


@functools.lru_cache(maxsize=4096)
def _fractional_edge_cover_cached(hg: Hypergraph) -> Tuple[float, Tuple[Tuple[str, float], ...]]:
    value, weights = _fractional_edge_cover_impl(hg)
    return value, tuple(sorted(weights.items()))


def fractional_edge_cover(
    hg: Hypergraph,
) -> Tuple[float, Dict[str, float]]:
    """Optimal fractional edge cover (cached by hypergraph structure)."""
    value, weights = _fractional_edge_cover_cached(hg)
    return value, dict(weights)


def _fractional_edge_cover_impl(
    hg: Hypergraph,
) -> Tuple[float, Dict[str, float]]:
    """Optimal fractional edge cover of a hypergraph.

    Returns ``(rho, weights)``. Raises :class:`QueryError` if some vertex
    is uncoverable (cannot happen for hypergraphs built from relations,
    where every attribute belongs to its edge, but guards subhypergraph
    bugs).
    """
    from scipy.optimize import linprog  # deferred: see the module docstring

    names = hg.edge_names
    attrs = hg.attrs
    n_edges = len(names)
    # Constraints: -A x <= -1  (i.e. A x >= 1), A[v][e] = 1 if v in e.
    a_ub = np.zeros((len(attrs), n_edges))
    for j, name in enumerate(names):
        for attr in hg.edge(name):
            a_ub[attrs.index(attr), j] = 1.0
    if not np.all(a_ub.sum(axis=1) >= 1):
        uncovered = [attrs[i] for i in range(len(attrs)) if a_ub[i].sum() < 1]
        raise QueryError(f"attributes {uncovered} belong to no edge")
    result = linprog(
        c=np.ones(n_edges),
        A_ub=-a_ub,
        b_ub=-np.ones(len(attrs)),
        bounds=[(0, None)] * n_edges,
        method="highs",
    )
    if not result.success:  # pragma: no cover - LP is always feasible here
        raise QueryError(f"edge cover LP failed: {result.message}")
    weights = {name: float(result.x[j]) for j, name in enumerate(names)}
    return float(result.fun), weights


def rho(hg: Hypergraph) -> float:
    """The paper's ρ(Q): optimal fractional edge cover number."""
    value, _ = fractional_edge_cover(hg)
    # Round away LP solver noise: widths of constant-size queries are
    # small rationals (1, 1.5, 2, ...).
    return round(value, 6)


def integral_edge_cover(hg: Hypergraph) -> Tuple[int, List[str]]:
    """Smallest integral edge cover, by exhaustive search (constant m).

    Used by tests as a sanity upper bound on ρ and by the baseline cost
    model.
    """
    names = hg.edge_names
    attrs = set(hg.attrs)
    best: Tuple[int, List[str]] = (len(names) + 1, [])
    m = len(names)
    for mask in range(1, 1 << m):
        chosen = [names[i] for i in range(m) if mask >> i & 1]
        if len(chosen) >= best[0]:
            continue
        covered = set()
        for name in chosen:
            covered.update(hg.edge(name))
        if covered >= attrs:
            best = (len(chosen), chosen)
    if not best[1]:
        raise QueryError("hypergraph admits no edge cover")
    return best


def agm_bound(
    hg: Hypergraph, sizes: Mapping[str, int]
) -> float:
    """AGM output-size bound ``Π_e |R_e|^{x_e}`` for the optimal cover."""
    _, weights = fractional_edge_cover(hg)
    bound = 1.0
    for name, w in weights.items():
        size = max(1, sizes[name])
        bound *= float(size) ** w
    return bound
