"""The Figure 7 guideline: choosing an evaluation strategy per query.

Given only the query structure (never the data — that is future work the
paper's Section 6.3 sketches), the guideline walks a decision tree:

* hierarchical (or r-hierarchical after reduction) → TIMEFIRST with the
  attribute-tree structure (Theorem 6, optimal);
* acyclic but non-hierarchical → TIMEFIRST with the GHD state
  (Corollary 10); when hhtw = 2 the hierarchical-GHD HYBRID is listed as
  competitive, and when a guarded partition exists HYBRID-INTERVAL is
  preferred (Section 4.2's O(N^1.5 + K) for line joins);
* cyclic → HYBRID (Theorem 12); TIMEFIRST-GHD is additionally listed when
  fhtw + 1 ≤ hhtw, and the guarded simplification applies when available.

:func:`plan` returns a :class:`Plan` carrying the primary choice, the
competitive alternatives, the computed widths, and an ``explain()``
rendering used by the Table 1 bench.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..obs import NULL_TRACER, Tracer
from .classification import QueryClass, classify
from .errors import QueryError
from .plancache import PlanCache, cache_key, decode_entry, encode_entry, key_digest
from .query import JoinQuery


@dataclass
class Plan:
    """Outcome of the Figure 7 decision procedure for one query."""

    query: JoinQuery
    query_class: QueryClass
    algorithm: str
    alternatives: List[str]
    fhtw: float
    hhtw: float
    exponent: float  # Theorem 12 bound min(fhtw + 1, hhtw) (1 if hierarchical)
    guarded: bool
    notes: List[str] = field(default_factory=list)
    #: Default execution substrate for the chosen algorithm under
    #: ``engine="auto"``: ``"kernel"`` (columnar interned sweep,
    #: :mod:`repro.kernels`) when the algorithm has a kernel fast path,
    #: ``"object"`` otherwise. Same asymptotics either way — the engine
    #: is a constant-factor choice, never a plan-shape one.
    engine: str = "object"
    #: False when a planner budget expired before the decomposition
    #: search was exhausted: ``fhtw``/``hhtw`` are then the best-found
    #: *upper bounds* (still achieved by the witnesses below).
    optimal: bool = True
    #: The winning decompositions (``repro.nontemporal.ghd.GHD``), kept
    #: so the static verifier can re-check every searched GHD without
    #: re-running the search. Untyped to avoid an import cycle.
    fhtw_witness: Optional[object] = field(default=None, repr=False)
    hhtw_witness: Optional[object] = field(default=None, repr=False)

    def explain(self) -> str:
        """Human-readable account of the decision, à la Table 1."""
        lines = [
            f"query      : {self.query!r}",
            f"class      : {self.query_class.value}",
            f"fhtw       : {self.fhtw:g}   hhtw: {self.hhtw:g}",
            f"exponent   : N^{self.exponent:g} (+ K)",
            f"algorithm  : {self.algorithm}",
            f"engine     : {self.engine}"
            + (" (interned columnar sweep)" if self.engine == "kernel" else ""),
        ]
        if not self.optimal:
            lines.append(
                "optimal    : no (search budget exhausted; widths are "
                "best-found upper bounds)"
            )
        if self.alternatives:
            lines.append(f"also viable: {', '.join(self.alternatives)}")
        if self.guarded:
            lines.append("guarded    : yes (HybridGuarded / interval join applies)")
        for note in self.notes:
            lines.append(f"note       : {note}")
        return "\n".join(lines)


def plan_signature(query: JoinQuery) -> Tuple:
    """Hashable shape key of ``query`` for plan caching.

    Two queries share a signature iff they have the same hypergraph —
    same edge names bound to the same attribute tuples — and the same
    output attribute order. Everything :func:`plan` looks at
    (classification, widths, guardedness) is a function of the
    hypergraph alone, so equal signatures guarantee equal plans; the
    attribute order is included because a cached plan is reused together
    with query-level artifacts (result layouts) that do depend on it.
    The plan cache in :class:`repro.kernels.prepared.PreparedDatabase`
    keys on this plus the requested algorithm name.
    """
    edges = tuple(
        (name, tuple(query.edge(name))) for name in sorted(query.edge_names)
    )
    return edges, tuple(query.attrs)


def hypergraph_signature(query: JoinQuery) -> Tuple:
    """Like :func:`plan_signature` but ignoring output attribute order.

    Queries with equal hypergraph signatures have identical result
    *sets* up to a column permutation — the batch executor uses this to
    evaluate each distinct hypergraph once and project the shared rows
    into every requested attribute order.
    """
    return plan_signature(query)[0]


#: One :class:`PlanCache` instance per resolved directory, so repeated
#: ``plan()`` calls under one process share a single load of the file.
_CACHES: Dict[str, PlanCache] = {}


def _resolve_cache(
    cache: Union[None, str, PlanCache],
) -> Optional[PlanCache]:
    """``cache=`` / ``REPRO_PLAN_CACHE`` to a live :class:`PlanCache`."""
    if cache is None:
        cache = os.environ.get("REPRO_PLAN_CACHE") or None
    if cache is None:
        return None
    if isinstance(cache, PlanCache):
        return cache
    path = os.path.abspath(cache)
    obj = _CACHES.get(path)
    if obj is None:
        obj = PlanCache(path)
        _CACHES[path] = obj
    return obj


def _resolve_budget(budget: Optional[int]) -> Optional[int]:
    """``budget=`` / ``REPRO_PLANNER_BUDGET`` to a node count (or None)."""
    if budget is not None:
        return budget
    raw = os.environ.get("REPRO_PLANNER_BUDGET")
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise QueryError(
            f"REPRO_PLANNER_BUDGET must be an integer node count, got {raw!r}"
        )


def plan(
    query: JoinQuery,
    verify: Optional[bool] = None,
    *,
    budget: Optional[int] = None,
    cache: Union[None, str, PlanCache] = None,
    stats: Optional[Tracer] = None,
) -> Plan:
    """Run the Figure 7 guideline on ``query`` (O(1) data complexity).

    The width searches run through
    :func:`repro.nontemporal.search.min_width_ghd`'s exact
    branch-and-bound; ``budget`` caps its node count
    (``REPRO_PLANNER_BUDGET``) — an exhausted budget degrades to the
    best-found decomposition with ``Plan.optimal = False`` and a
    ``planner.budget_exhausted`` note rather than failing.

    ``cache`` (a directory path, a :class:`PlanCache`, or the
    ``REPRO_PLAN_CACHE`` environment variable) adds a persistent lookup
    in front of the search, keyed by the renaming-invariant canonical
    hypergraph signature: a warm hit rebuilds the cached winning GHDs
    and performs **zero** search nodes. Only proven-optimal results are
    persisted. ``stats`` records ``planner.search_nodes``,
    ``planner.lb_prunes``, ``planner.cache_hits`` /
    ``planner.cache_misses`` (cache configured only) and the
    ``phase.planner.search`` timer.

    With ``verify=True`` — or the ``REPRO_VERIFY_PLANS`` environment
    variable set to a non-empty value — the returned plan is passed
    through the static verifier (:func:`repro.analysis.plans.verify_plan`)
    before being handed back: width accounting, class consistency and
    algorithm applicability are re-derived and any mismatch raises
    :class:`~repro.analysis.plans.PlanVerificationError`. The debug flag
    costs one extra width search per call, so it defaults to off.
    """
    stats = NULL_TRACER if stats is None else stats
    from ..nontemporal.ghd import find_guarded_partition
    from ..nontemporal.search import min_width_ghd

    budget = _resolve_budget(budget)
    cache_obj = _resolve_cache(cache)

    hg = query.hypergraph
    qclass = classify(hg)
    guarded = find_guarded_partition(hg) is not None
    notes: List[str] = []

    widths = None
    digest = None
    if cache_obj is not None:
        digest = key_digest(cache_key(hg))
        entry = cache_obj.lookup(digest)
        if entry is not None:
            widths = decode_entry(entry, hg)
            if widths is not None:
                stats.incr("planner.cache_hits")
    optimal = True
    store_entry = False
    if widths is None:
        if cache_obj is not None:
            stats.incr("planner.cache_misses")
        with stats.timer("phase.planner.search"):
            fres = min_width_ghd(hg, hierarchical=False, budget=budget)
            hres = min_width_ghd(hg, hierarchical=True, budget=budget)
        stats.incr("planner.search_nodes", fres.nodes + hres.nodes)
        stats.incr("planner.lb_prunes", fres.lb_prunes + hres.lb_prunes)
        widths = (fres.width, fres.ghd, hres.width, hres.ghd)
        optimal = fres.optimal and hres.optimal
        if not optimal:
            reason = fres.reason or hres.reason or "search budget exhausted"
            notes.append(
                f"decomposition search incomplete ({reason}); widths are "
                "best-found upper bounds"
            )
            stats.note("planner.budget_exhausted", reason)
        store_entry = cache_obj is not None and optimal
    f, fghd, h, hghd = widths

    if qclass in (QueryClass.HIERARCHICAL, QueryClass.R_HIERARCHICAL):
        algorithm = "timefirst"
        alternatives: List[str] = []
        exponent = 1.0
        if qclass is QueryClass.R_HIERARCHICAL:
            notes.append(
                "r-hierarchical: linear-time instance reduction first "
                "(footnote 2), then the hierarchical sweep"
            )
        notes.append("O(N log N + K), optimal under 3SUM (Theorem 6 / 14)")
    elif qclass is QueryClass.ACYCLIC:
        algorithm = "timefirst"
        alternatives = []
        exponent = 2.0
        if guarded:
            algorithm = "hybrid-interval"
            alternatives.append("timefirst")
            notes.append(
                "guarded partition exists: interval-join residuals "
                "(O(N^1.5 + K) for line joins)"
            )
        if h == 2:
            alternatives.append("hybrid")
            notes.append("hhtw = 2: hierarchical-GHD HYBRID is competitive")
    else:  # CYCLIC
        algorithm = "hybrid"
        alternatives = []
        exponent = min(f + 1, h)
        if f + 1 <= h:
            alternatives.append("timefirst")
            notes.append("fhtw + 1 <= hhtw: TIMEFIRST over the GHD also matches")
        if guarded:
            alternatives.append("hybrid-interval")
            notes.append("guarded simplification applies to the GHD")

    from ..kernels.engine import supports_kernel

    result = Plan(
        query=query,
        query_class=qclass,
        algorithm=algorithm,
        alternatives=alternatives,
        fhtw=f,
        hhtw=h,
        exponent=exponent,
        guarded=guarded,
        notes=notes,
        engine="kernel" if supports_kernel(algorithm) else "object",
        optimal=optimal,
        fhtw_witness=fghd,
        hhtw_witness=hghd,
    )
    if store_entry:
        cache_obj.store(
            digest,
            encode_entry(f, fghd, h, hghd, algorithm, qclass.value),
        )
        cache_obj.save()
    if verify is None:
        verify = bool(os.environ.get("REPRO_VERIFY_PLANS"))
    if verify:
        from ..analysis.plans import verify_plan

        verify_plan(result)
    return result
