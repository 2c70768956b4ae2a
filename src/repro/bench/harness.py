"""Measurement harness: wall-clock, peak memory, result validation.

The paper reports three quantities per (algorithm, workload, τ) cell:
running time (Figures 8–10), peak memory (Figures 8, 11), and — for
Figure 9 — throughput (results per second). :func:`measure` produces all
of them for one run; :func:`compare_algorithms` builds the full table a
figure needs, cross-validating that every algorithm returned identical
results (a benchmark that silently compares algorithms computing
different answers is worse than no benchmark).

Peak memory uses :mod:`tracemalloc`, which tracks Python allocations —
the right analogue of the paper's resident-set measurements for a pure
Python system. Tracing slows execution, so timing and memory are taken
in separate runs.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

from ..algorithms.registry import (
    get_algorithm,
    strip_unsupported_kwargs,
    temporal_join,
)
from ..core.errors import InvariantError, ReproError
from ..core.interval import Number
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet
from ..obs import ExecutionStats


@dataclass
class Measurement:
    """One (algorithm, workload, τ) cell."""

    algorithm: str
    seconds: float
    peak_bytes: int
    result_count: int
    input_size: int
    tau: Number
    ok: bool = True
    note: str = ""
    stats: Optional[ExecutionStats] = None
    workers: int = 1
    #: Wall time of every timed repetition; ``seconds`` is their minimum.
    samples: List[float] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Results per second (Figure 9's metric).

        An empty result is zero throughput regardless of how fast the run
        was — in particular a zero-result cell measured at ``seconds == 0``
        must not report ``inf`` results/sec.
        """
        if self.result_count <= 0:
            return 0.0
        return self.result_count / self.seconds if self.seconds > 0 else float("inf")


def measure(
    algorithm: str,
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    measure_memory: bool = True,
    repeat: int = 1,
    collect_stats: bool = False,
    **kwargs,
) -> Measurement:
    """Run one algorithm, returning time, peak memory, and result count.

    With ``collect_stats=True`` a *separate* instrumented run fills
    ``Measurement.stats`` with execution counters; the timed runs stay
    uninstrumented so telemetry never contaminates the reported
    wall-clock numbers.

    ``kwargs`` may be a *shared* dict aimed at several algorithms with
    differing signatures: the registry's kwarg-stripping drops anything
    this algorithm does not accept, while dispatch-level kwargs
    (``workers=``, ``parallel_mode=``) always pass through to
    :func:`~repro.algorithms.registry.temporal_join`.
    """
    if algorithm != "auto":
        kwargs = strip_unsupported_kwargs(get_algorithm(algorithm), kwargs)
    n = query.input_size(database)
    workers = int(kwargs.get("workers") or 1)

    def run(**extra) -> JoinResultSet:
        return temporal_join(
            query, database, tau=tau, algorithm=algorithm, **kwargs, **extra
        )

    samples: List[float] = []
    result: Optional[JoinResultSet] = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        result = run()
        samples.append(time.perf_counter() - start)
    if result is None:
        raise InvariantError(
            "measure() ran zero repetitions; repeat is clamped to >= 1, "
            "so a missing result means the timing loop is broken"
        )

    peak = 0
    if measure_memory:
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    stats: Optional[ExecutionStats] = None
    if collect_stats:
        stats = ExecutionStats()
        run(stats=stats)

    return Measurement(
        algorithm=algorithm,
        seconds=min(samples),
        peak_bytes=peak,
        result_count=len(result),
        input_size=n,
        tau=tau,
        stats=stats,
        workers=workers,
        samples=samples,
    )


def compare_algorithms(
    algorithms: Sequence[str],
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    measure_memory: bool = True,
    validate: bool = True,
    repeat: int = 1,
    collect_stats: bool = False,
    **kwargs,
) -> List[Measurement]:
    """Measure several algorithms on one workload, cross-validating output.

    Algorithms that raise :class:`ReproError` (e.g. HYBRID-INTERVAL on a
    query without a guarded partition) are reported with ``ok=False`` and
    a note instead of aborting the whole figure. ``collect_stats=True``
    attaches an execution-counter profile to each measurement (taken in
    a dedicated run, never the timed one). ``kwargs`` is one shared dict
    handed to every algorithm; :func:`measure` strips per-algorithm what
    each signature does not accept, so e.g. ``workers=4`` parallelizes
    every cell without crashing algorithms that never heard of it.
    """
    measurements: List[Measurement] = []
    reference: Optional[List] = None
    for name in algorithms:
        try:
            m = measure(
                name, query, database, tau=tau,
                measure_memory=measure_memory, repeat=repeat,
                collect_stats=collect_stats, **kwargs,
            )
        except ReproError as exc:
            measurements.append(
                Measurement(
                    algorithm=name, seconds=float("nan"), peak_bytes=0,
                    result_count=-1, input_size=query.input_size(database),
                    tau=tau, ok=False, note=str(exc),
                )
            )
            continue
        if validate:
            fn = get_algorithm(name)
            got = fn(query, database, tau=tau).normalized()
            if reference is None:
                reference = got
            elif got != reference:
                m.ok = False
                m.note = "RESULT MISMATCH vs first algorithm"
        measurements.append(m)
    return measurements


def measure_scaling(
    algorithm: str,
    query: JoinQuery,
    database: Mapping[str, TemporalRelation],
    tau: Number = 0,
    workers_list: Sequence[int] = (1, 2, 4, 8),
    repeat: int = 1,
    parallel_mode: str = "process",
    measure_memory: bool = False,
    collect_stats: bool = False,
    validate: bool = True,
) -> List[Measurement]:
    """One algorithm at several worker counts — the parallel-speedup curve.

    Returns one :class:`Measurement` per entry of ``workers_list`` (in
    order; ``workers == 1`` is the serial anchor every speedup is
    relative to). With ``validate=True`` each parallel cell is checked
    against the serial result and flagged ``ok=False`` on mismatch —
    a scaling table over wrong answers is worse than no table.
    """
    measurements: List[Measurement] = []
    reference: Optional[List] = None
    for w in workers_list:
        m = measure(
            algorithm, query, database, tau=tau,
            measure_memory=measure_memory, repeat=repeat,
            collect_stats=collect_stats,
            workers=w, parallel_mode=parallel_mode,
        )
        if validate:
            got = temporal_join(
                query, database, tau=tau, algorithm=algorithm,
                workers=w, parallel_mode=parallel_mode,
            ).normalized()
            if reference is None:
                reference = got
            elif got != reference:
                m.ok = False
                m.note = f"RESULT MISMATCH vs workers={measurements[0].workers}"
        measurements.append(m)
    return measurements


def scaling_exponent(sizes: Sequence[int], times: Sequence[float]) -> float:
    """Least-squares slope of log(time) vs log(N) — the measured exponent.

    Used by the ablation bench to compare empirical growth against the
    theoretical bounds of Figure 4.
    """
    import math

    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-9)) for t in times]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den if den else float("nan")
