"""Algorithm registry, the one route decision, and the join entry points.

Every evaluation strategy from the paper is registered under the name the
experiments section uses. :func:`resolve_route` is the one place that
decides how a join runs — for ``temporal_join``, ``explain_analyze``,
``parallel_temporal_join`` and ``run_batch`` alike: it validates the
arguments, runs the Figure 7 planner when ``algorithm="auto"``, falls
back to the universally applicable HYBRID (algorithm-specific keyword
arguments stripped) when the planner's pick is structurally inapplicable
to the instance (checked *up front*, never by catching mid-execution
errors), and picks the engine. Its :class:`Route` record is what the
callers execute and report.

:func:`explain_analyze` is the observability entry point: it evaluates
the query with an :class:`~repro.obs.ExecutionStats` attached and
returns the planner's static ``explain()`` alongside the measured
counters — the paper's theory (Figure 4 exponents) next to what actually
happened.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..core.errors import QueryError
from ..core.interval import Number
from ..core.planner import Plan
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..obs import ExecutionStats

Algorithm = Callable[..., JoinResultSet]

_REGISTRY: Dict[str, Algorithm] = {}


def register(name: str) -> Callable[[Algorithm], Algorithm]:
    """Decorator registering an algorithm under ``name``."""

    def deco(fn: Algorithm) -> Algorithm:
        _REGISTRY[name] = fn
        return fn

    return deco


def available_algorithms() -> list:
    """Registered algorithm names (sorted)."""
    _ensure_loaded()
    return sorted(_REGISTRY)


_DESCRIPTIONS = {
    "timefirst": (
        "TIMEFIRST sweep (Alg. 1): attribute-tree state on hierarchical "
        "queries (O(N log N + K), Thm. 6), GHD state otherwise "
        "(O(N^(fhtw+1) + K), Thm. 9). Applicable to every query."
    ),
    "timefirst-cm": (
        "TIMEFIRST with the comparison-model §3.2 structure (BST + t+ "
        "heaps). (r-)hierarchical queries with ordered domains only."
    ),
    "hybrid": (
        "HYBRID (Alg. 5): GHD bag materialization + one sweep "
        "(O(N^min(fhtw+1, hhtw) + K), Thm. 12). Applicable everywhere; "
        "the choice for cyclic queries."
    ),
    "hybrid-interval": (
        "HYBRID-INTERVAL (Alg. 6): guarded core join + interval-join "
        "residuals (O(N^1.5 + K) on line joins). Requires a guarded "
        "partition (lines, stars, TPC-style chains)."
    ),
    "baseline": (
        "BASELINE: pairwise binary temporal joins (lazy endpoint sweep "
        "by default) with a value-statistics join-order search. "
        "Applicable everywhere; vulnerable to intermediate blow-up."
    ),
    "joinfirst": (
        "JOINFIRST: worst-case-optimal non-temporal join, then interval "
        "filtering. Fast iff the non-temporal result is small."
    ),
    "naive": "Brute-force backtracking oracle (testing only).",
}


def describe_algorithms() -> str:
    """Human-readable summary of every registered algorithm."""
    _ensure_loaded()
    lines = []
    for name in sorted(_REGISTRY):
        description = _DESCRIPTIONS.get(name, "(no description)")
        lines.append(f"{name:>16}: {description}")
    return "\n".join(lines)


def get_algorithm(name: str) -> Algorithm:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise QueryError(
            f"unknown algorithm {name!r}; available: {available_algorithms()}"
        ) from None


_loaded = False


def _ensure_loaded() -> None:
    global _loaded
    if _loaded:
        return
    from .baseline import baseline_join
    from .hierarchical_cm import ComparisonHierarchicalState
    from .hybrid import hybrid_join
    from .hybrid_interval import hybrid_interval_join
    from .joinfirst import joinfirst_join
    from .naive import naive_join
    from .timefirst import timefirst_join

    _REGISTRY.setdefault("timefirst", timefirst_join)

    def timefirst_cm(query, database, tau=0, stats=None, **kwargs):
        """TIMEFIRST with the comparison-model §3.2 structure.

        Only applicable to (r-)hierarchical queries with totally ordered
        attribute domains; registered for the data-structure ablation.
        Merely r-hierarchical queries go through the footnote-2 instance
        reduction first, like the hashed variant.
        """
        return timefirst_join(
            query, database, tau=tau,
            state_factory=lambda q, db: ComparisonHierarchicalState(q, stats=stats),
            stats=stats,
            **kwargs,
        )

    _REGISTRY.setdefault("timefirst-cm", timefirst_cm)
    _REGISTRY.setdefault("hybrid", hybrid_join)
    _REGISTRY.setdefault("hybrid-interval", hybrid_interval_join)
    _REGISTRY.setdefault("baseline", baseline_join)
    _REGISTRY.setdefault("joinfirst", joinfirst_join)
    _REGISTRY.setdefault("naive", naive_join)
    _loaded = True


def _check_tau(tau: Number) -> None:
    """Reject non-finite durability thresholds at the API boundary.

    ``tau = inf`` would shrink every finite interval to nothing while
    mapping infinite endpoints onto their fixed points — a join that can
    only ever return the always-valid tuples, which no caller has ever
    meant. ``tau = nan`` silently drops everything. Both now fail fast
    with an explanation instead of producing a surprising empty result.
    """
    try:
        finite = math.isfinite(tau)
    except TypeError:
        raise QueryError(
            f"tau must be a real number, got {type(tau).__name__}: {tau!r}"
        ) from None
    if not finite:
        raise QueryError(
            f"tau must be finite, got {tau!r}; durability over an infinite "
            "window is not a meaningful temporal join"
        )
    if tau < 0:
        raise QueryError(f"tau must be non-negative, got {tau!r}")


def _applicable(name: str, query: JoinQuery) -> bool:
    """Up-front structural applicability check for an algorithm pick.

    This is the *entire* fallback condition for ``algorithm="auto"``:
    a plan is abandoned only when this predicate says the algorithm
    cannot run on ``query`` at all, never because some mid-execution
    error happened to be a :class:`PlanError`.
    """
    if name == "hybrid-interval":
        from ..nontemporal.ghd import find_guarded_partition

        return find_guarded_partition(query.hypergraph) is not None
    if name == "timefirst-cm":
        return query.is_hierarchical or query.is_r_hierarchical
    return True


#: Keyword arguments consumed by the dispatch layer itself, never by an
#: algorithm function. :func:`strip_unsupported_kwargs` always keeps them,
#: so benchmark code can hand one common kwargs dict (``workers=`` …) to
#: algorithms with differing signatures. ``engine`` lives here for the
#: same reason: algorithms without a kernel fast path must have it
#: stripped at dispatch, not see it and error. ``prepared`` likewise:
#: only the dispatch layer knows how to swap prepared columns in.
#: ``predicate`` too: a non-``"overlaps"`` predicate reroutes dispatch to
#: the binary lazy-sweep path before any algorithm is called.
EXECUTOR_KWARGS = frozenset(
    {"workers", "parallel_mode", "engine", "prepared", "predicate"}
)

#: Engines accepted by :func:`temporal_join` / :func:`explain_analyze`.
ENGINES = ("auto", "kernel", "object")


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise QueryError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )


def _engine_decision(
    name: str, engine: str, kwargs: Mapping
) -> Tuple[str, Optional[str]]:
    """The one engine-selection rule, applied by :func:`resolve_route`.

    Returns ``(used_engine, fallback_reason)`` for the *post-fallback*
    algorithm ``name``. Every entry point gets its engine through the
    route, so the engine that runs and the engine that is reported cannot
    drift apart.

    ``engine="auto"`` and ``engine="kernel"`` both pick the kernel
    whenever the resolved algorithm has a kernel implementation, no
    algorithm-specific kwargs (e.g. ``state_factory=``) force the object
    path, and the registry entry is still the stock implementation (the
    kernel path accelerates *that* algorithm, so a replaced/patched
    registration — tests, user overrides — must win over the fast path).

    ``fallback_reason`` is non-``None`` exactly when the caller asked
    for ``engine="kernel"`` explicitly and the request degraded — the
    silent-degradation bug this replaces: an explicit request that runs
    the object path now records *why* (``kernel.fallback_reason``).
    ``engine="auto"`` degradations are normal dispatch, not fallbacks,
    and never produce a reason.
    """
    from ..kernels.engine import supports_kernel
    from .timefirst import timefirst_join

    if engine == "object":
        return "object", None
    explicit = engine == "kernel"
    if not supports_kernel(name):
        return "object", (
            f"algorithm {name!r} has no kernel fast path"
            if explicit else None
        )
    if kwargs:
        return "object", (
            f"algorithm kwargs {sorted(kwargs)} force the object path"
            if explicit else None
        )
    if _REGISTRY.get(name) is not timefirst_join:
        return "object", (
            f"registry entry for {name!r} is overridden; the kernel "
            "accelerates the stock implementation only"
            if explicit else None
        )
    return "kernel", None


def strip_unsupported_kwargs(fn: Algorithm, kwargs: Dict) -> Dict:
    """Drop keyword arguments ``fn`` does not accept.

    Dispatch-layer kwargs (:data:`EXECUTOR_KWARGS`) survive regardless of
    ``fn``'s signature — they are consumed before ``fn`` is called. Used
    on the auto-dispatch fallback path (kwargs meant for the planner's
    original pick, e.g. ``residual_strategy=`` for HYBRID-INTERVAL, must
    not crash the substitute algorithm) and by
    :func:`repro.bench.harness.measure` to pass one shared kwargs dict
    across algorithms.
    """
    sig = inspect.signature(fn)
    params = sig.parameters.values()
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params):
        return dict(kwargs)
    accepted = {
        p.name
        for p in params
        if p.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        )
    }
    accepted |= EXECUTOR_KWARGS
    return {k: v for k, v in kwargs.items() if k in accepted}


def _resolve_auto(
    query: JoinQuery, kwargs: Dict, choice: Plan
) -> Tuple[str, Algorithm, Dict]:
    """Validate the Figure 7 planner's pick ``choice`` up front.

    Returns ``(name, fn, kwargs)``; when the planner's pick is
    structurally inapplicable to this instance the universally
    applicable HYBRID is substituted, with algorithm-specific kwargs
    stripped. Errors raised *during* the chosen algorithm's execution —
    including :class:`PlanError` from nested machinery — propagate to
    the caller untouched.
    """
    name = choice.algorithm
    if _applicable(name, query):
        return name, _REGISTRY[name], kwargs
    fallback = _REGISTRY["hybrid"]
    return "hybrid", fallback, strip_unsupported_kwargs(fallback, kwargs)


#: The route name of a non-``overlaps`` predicate: the binary lazy sweep.
LAZY_SWEEP = "lazy-sweep"


@dataclass(frozen=True)
class Route:
    """One join's resolved route, built only by :func:`resolve_route`.

    The entry points execute it and report from it, so the route that
    runs and the route that is reported are one value.
    """

    name: str  # the algorithm after the Figure-7 fallback, or LAZY_SWEEP
    fn: Optional[Algorithm]
    kwargs: Dict
    plan: Optional[Plan]  # None when no plan was needed
    engine: str  # "kernel" or "object"
    reason: Optional[str]  # why an explicit engine="kernel" degraded
    prepared: Optional[object] = None  # the artifact the kernel reads, if any


def resolve_route(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    algorithm: str = "auto",
    stats: Optional[ExecutionStats] = None,
    workers: Optional[int] = None,
    engine: str = "auto",
    prepared=None,
    predicate: str = "overlaps",
    kwargs: Optional[Dict] = None,
    explain: bool = False,
) -> Route:
    """The one route decision behind every join entry point.

    Validates τ, ``engine``, ``workers`` and the ``prepared=`` artifact;
    plans once, with ``stats``, when the algorithm is ``"auto"`` or
    ``explain`` asks for the plan; applies the up-front Figure-7
    fallback; picks the engine with :func:`_engine_decision` and notes
    an explicit request's ``kernel.fallback_reason``. An artifact the
    route does not read (the object engine, or a query that needs the
    per-query r-hierarchical reduction, which also notes why) counts one
    ``prepared.fallback_queries``. A non-``overlaps`` predicate resolves
    to the binary lazy sweep: two edges, no workers, and algorithm
    ``auto`` or ``baseline`` (both mean "the binary join" there).
    """
    from ..core.planner import plan
    from .allen import parse_predicate
    from .timefirst import needs_reduction

    _ensure_loaded()
    _check_tau(tau)
    _check_engine(engine)
    if workers is not None and workers < 1:
        raise QueryError(f"workers must be >= 1, got {workers!r}")
    if prepared is not None:
        prepared.validate_against(database)
    kwargs = {} if kwargs is None else kwargs
    if parse_predicate(predicate) != ("overlaps",):
        names = query.edge_names
        if len(names) != 2:
            raise QueryError(
                f"predicate {predicate!r} requires a binary query (exactly two "
                f"edges); got {len(names)} edges {list(names)}. Only the "
                "default 'overlaps' predicate supports multiway queries."
            )
        if workers is not None and workers > 1:
            raise QueryError(
                f"predicate {predicate!r} does not support workers={workers}: "
                "the sharded merge's ownership rule assumes overlap semantics"
            )
        if algorithm not in ("auto", "baseline"):
            raise QueryError(
                f"predicate {predicate!r} runs the lazy-sweep binary engine; "
                f"algorithm must be 'auto' or 'baseline', got {algorithm!r}"
            )
        used = "object" if engine == "object" else "kernel"
        reads = prepared if used == "kernel" else None
        route = Route(LAZY_SWEEP, None, {}, None, used, None, reads)
    else:
        choice = None
        if algorithm == "auto" or explain:
            if prepared is not None:
                choice = prepared.cached_plan(query, stats=stats)
            else:
                choice = plan(query, stats=stats)
        if algorithm == "auto":
            name, fn, kwargs = _resolve_auto(query, kwargs, choice)
        else:
            name, fn = algorithm, get_algorithm(algorithm)
        used, reason = _engine_decision(name, engine, kwargs)
        reads = None
        if prepared is not None and used == "kernel" and not needs_reduction(query):
            reads = prepared
        route = Route(name, fn, kwargs, choice, used, reason, reads)
    if stats is not None:
        if route.reason is not None:
            stats.note("kernel.fallback_reason", route.reason)
        if prepared is not None and reads is None:
            stats.incr("prepared.fallback_queries")
            if used == "kernel":
                stats.note(
                    "kernel.fallback_reason",
                    "r-hierarchical instance reduction is per-query; "
                    "prepared columns cannot be shared, running cold",
                )
    return route


def run_route(
    route: Route,
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number,
    stats: Optional[ExecutionStats] = None,
    workers: Optional[int] = None,
    parallel_mode: str = "process",
    cuts=None,
) -> JoinResultSet:
    """Execute a resolved multiway route: sharded for ``workers >= 2``."""
    if workers is not None and workers > 1:
        from ..parallel.executor import run_sharded

        return run_sharded(
            route, query, database, tau, workers, parallel_mode, cuts, stats
        )
    if route.engine == "kernel":
        from ..kernels.engine import kernel_columns, sweep_columns

        run_query, columns = kernel_columns(
            query, database, tau, stats=stats, prepared=route.prepared
        )
        return sweep_columns(run_query, columns, tau, stats=stats)
    kwargs = route.kwargs if stats is None else dict(route.kwargs, stats=stats)
    return route.fn(query, database, tau=tau, **kwargs)


def _binary_predicate_join(
    route: Route,
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number,
    predicate: str,
    stats: Optional[ExecutionStats],
) -> JoinResultSet:
    """Run a non-``overlaps`` predicate on the lazy-sweep binary path.

    Allen predicates are defined on a *pair* of intervals, hence the
    route's binary-only walls: the multiway machinery is all built on
    intersection semantics. τ filters the *emitted* pair interval — the intersection, or the gap
    for ``before`` — by duration, consistent with the shrink/expand
    durability semantics of the overlaps path (where the emitted
    interval is always the intersection).
    """
    names = query.edge_names
    query.validate(database)
    if route.engine == "object":
        from .binary import binary_temporal_join

        joined = binary_temporal_join(
            database[names[0]],
            database[names[1]],
            strategy="lazy-sweep",
            predicate=predicate,
            stats=stats,
        )
        out = JoinResultSet(query.attrs)
        perm = joined.positions(query.attrs) if len(joined) else ()
        for values, interval in joined:
            out.append(tuple(values[p] for p in perm), interval)
    else:
        from ..kernels.allen import kernel_predicate_join

        out = kernel_predicate_join(
            query, database, predicate, stats=stats, prepared=route.prepared
        )
    if tau:
        out = out.filter_durable(tau)
    if stats is not None:
        stats.incr("results", len(out))
    return out


def _join(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number,
    algorithm: str,
    stats: Optional[ExecutionStats],
    workers: Optional[int],
    parallel_mode: str,
    engine: str,
    prepared,
    predicate: str,
    kwargs: Dict,
    explain: bool = False,
) -> Tuple[JoinResultSet, Route]:
    """Resolve the route and run it: the call behind both public entry points."""
    cuts = None
    if workers is not None and workers > 1:
        # ``cuts=`` is the sharded executor's own argument (as in
        # ``parallel_temporal_join``), never the algorithm's.
        cuts = kwargs.pop("cuts", None)
    route = resolve_route(
        query, database, tau, algorithm, stats=stats, workers=workers,
        engine=engine, prepared=prepared, predicate=predicate, kwargs=kwargs,
        explain=explain,
    )
    if route.name == LAZY_SWEEP:
        result = _binary_predicate_join(route, query, database, tau, predicate, stats)
    else:
        result = run_route(
            route, query, database, tau, stats, workers, parallel_mode, cuts
        )
    return result, route


def temporal_join(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    algorithm: str = "auto",
    stats: Optional[ExecutionStats] = None,
    workers: Optional[int] = None,
    parallel_mode: str = "process",
    engine: str = "auto",
    prepared=None,
    predicate: str = "overlaps",
    **kwargs,
) -> JoinResultSet:
    """Evaluate the τ-durable temporal join of ``query`` on ``database``.

    Parameters
    ----------
    query:
        The join query (hypergraph + output attribute order).
    database:
        Mapping from relation name to :class:`TemporalRelation`.
    tau:
        Durability threshold; 0 gives the plain temporal join. Must be a
        finite non-negative number (:class:`QueryError` otherwise).
    algorithm:
        ``"auto"`` (Figure 7 planner), or one of
        :func:`available_algorithms` — ``timefirst``, ``hybrid``,
        ``hybrid-interval``, ``baseline``, ``joinfirst``, ``naive``.
    stats:
        Optional :class:`~repro.obs.ExecutionStats` that the selected
        algorithm fills with execution counters and phase timers. When
        ``None`` (the default) no telemetry code runs.
    workers:
        ``None`` or ``1`` (default) runs the algorithm serially.
        ``workers >= 2`` routes through the sharded engine of
        :mod:`repro.parallel`: the same algorithm runs on ``workers``
        shards — split by an attribute every relation shares where the
        kernel engine runs, else by endpoint-balanced time cuts — and
        the results are merged exactly once — identical output up to
        row order.
    parallel_mode:
        ``"process"`` (spawn-based pool, the default) or ``"inline"``
        (same sharded execution inside the calling process, for
        debugging). Ignored unless ``workers >= 2``.
    engine:
        ``"auto"`` (default) runs the columnar kernel substrate
        (:mod:`repro.kernels` — interned values, rank-space endpoints,
        one pre-sorted event array) whenever the resolved algorithm has
        a kernel fast path, the object path otherwise. ``"kernel"``
        requests it explicitly; on algorithms without a fast path the
        kwarg is consumed and the object path runs (never an error).
        ``"object"`` forces the original object-row execution. Results
        are identical across engines up to row order.
    prepared:
        Optional :class:`~repro.kernels.prepared.PreparedDatabase` from
        :func:`repro.kernels.prepared.prepare`. Must match ``database``
        (validated up front, :class:`QueryError` on any drift); on the
        kernel path the call then skips interning, ranking and the
        event sort entirely, sweeping the artifact's cached columns.
        The object path, and a query that needs the per-query
        r-hierarchical reduction, run cold and count one
        ``prepared.fallback_queries``. See also
        :func:`repro.kernels.prepared.run_batch` for whole-fleet
        amortization.
    predicate:
        The interval predicate joining pairs must satisfy: the default
        ``"overlaps"`` (nonempty intersection — the paper's implicit
        join predicate, supported by every algorithm/engine/worker
        combination), any other extended Allen atom (``before``,
        ``meets``, ``starts``, ``started-by``, ``finishes``,
        ``finished-by``, ``during``, ``contains``, ``equals``) or an
        ``-or-`` union of atoms (``"overlaps-or-meets"``). Non-overlaps
        predicates require a **binary** (two-edge) query and run the
        lazy-sweep engine directly (serial only; ``engine=`` still
        selects object vs rank-space kernel execution); result intervals
        are the pair intersection, or the gap for ``before``, and τ
        filters that interval's duration. See
        :mod:`repro.algorithms.allen`.
    kwargs:
        Forwarded to the selected algorithm (e.g. ``order=`` for
        ``baseline``, ``mode=`` for ``hybrid``).

    Returns
    -------
    JoinResultSet
        Result tuples in ``query.attrs`` order with their valid intervals
        (the original, un-shrunk intervals even when ``tau > 0``).
    """
    result, _ = _join(
        query, database, tau, algorithm, stats, workers, parallel_mode,
        engine, prepared, predicate, kwargs,
    )
    return result


@dataclass
class ExplainAnalyze:
    """Planner explanation + measured execution profile of one join run."""

    algorithm: str
    plan_explanation: str
    stats: ExecutionStats
    result: JoinResultSet
    seconds: float
    tau: Number
    input_size: int
    engine: str = "object"
    #: Why an explicit ``engine="kernel"`` request degraded to the
    #: object path (``None`` when it did not) — the same text recorded
    #: under ``stats.notes["kernel.fallback_reason"]``.
    kernel_fallback: Optional[str] = None

    def render(self) -> str:
        """Aligned, ``EXPLAIN ANALYZE``-style report."""
        engine_line = f"engine:     {self.engine}"
        if self.kernel_fallback:
            engine_line += f" (kernel fallback: {self.kernel_fallback})"
        head = [
            f"algorithm:  {self.algorithm}",
            engine_line,
            f"tau:        {self.tau}",
            f"input rows: {self.input_size}",
            f"results:    {len(self.result)}",
            f"wall time:  {self.seconds * 1e3:.3f} ms",
        ]
        partition = self.stats.notes.get("parallel.partition")
        if partition is not None:
            head.append(f"partition:  {partition}")
        body = self.stats.render()
        sections = [
            "-- plan " + "-" * 32,
            self.plan_explanation,
            "-- execution " + "-" * 27,
            "\n".join(head),
        ]
        if body:
            sections += ["-- counters " + "-" * 28, body]
        return "\n".join(sections)


def explain_analyze(
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    algorithm: str = "auto",
    stats: Optional[ExecutionStats] = None,
    workers: Optional[int] = None,
    parallel_mode: str = "process",
    engine: str = "auto",
    prepared=None,
    predicate: str = "overlaps",
    **kwargs,
) -> ExplainAnalyze:
    """Run the join with telemetry attached and report plan + counters.

    The observability counterpart of :func:`temporal_join`: evaluates the
    query exactly as ``temporal_join`` would (same planner, same
    fallback, same kwargs) but with an :class:`ExecutionStats` collecting
    counters, and returns an :class:`ExplainAnalyze` pairing the
    planner's static ``explain()`` with what actually happened — events
    processed, peak active-set size, intermediate cardinalities, phase
    timers, wall time.

    ``stats`` may be supplied to accumulate counters across several runs
    (e.g. a parameter sweep); by default a fresh object is used. With
    ``workers >= 2`` the run goes through the parallel engine and the
    report includes the ``parallel.*`` counters and per-shard timers.
    With ``prepared=`` the run reuses the artifact's columns and plan
    cache exactly as ``temporal_join`` would, and the report's counters
    include the ``prepared.*`` rows (cache hits, reuse, time saved).
    """
    if stats is None:
        # Created before the route is resolved so the ``planner.*``
        # search counters land in the report alongside the execution
        # counters.
        stats = ExecutionStats()
    start = time.perf_counter()
    result, route = _join(
        query, database, tau, algorithm, stats, workers, parallel_mode,
        engine, prepared, predicate, kwargs, explain=True,
    )
    seconds = time.perf_counter() - start
    name, choice = route.name, route.plan
    if choice is None:
        # Non-overlaps predicates bypass the Figure-7 planner entirely:
        # the binary lazy-sweep path is the plan.
        explanation = (
            f"binary Allen-predicate join (predicate={predicate!r}): "
            "one lazy endpoint sweep per shared-attribute key group; "
            "no multiway plan applies"
        )
    elif name == choice.algorithm:
        explanation = choice.explain()
    elif algorithm != "auto":
        explanation = choice.explain() + (
            f"\n(algorithm forced to {name!r} by caller; the planner "
            f"would have picked {choice.algorithm!r})"
        )
    else:
        explanation = choice.explain() + (
            f"\n(auto fallback: planner picked {choice.algorithm!r}, "
            f"inapplicable to this instance; ran {name!r})"
        )
    return ExplainAnalyze(
        algorithm=name,
        plan_explanation=explanation,
        stats=stats,
        result=result,
        seconds=seconds,
        tau=tau,
        input_size=sum(len(rel) for rel in database.values()),
        engine=route.engine,
        kernel_fallback=route.reason,
    )
