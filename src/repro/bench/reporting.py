"""ASCII rendering of benchmark results in the shape of the paper's figures.

Each figure in the paper is a set of series (one per algorithm) over an
x-axis (τ, N, or query name). :func:`render_table` prints those series as
a compact table; :func:`render_ratio_table` normalizes to BASELINE the way
Figure 10 does ("we report running time as a ratio to that of BASELINE").
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from .harness import Measurement


def format_bytes(n: int) -> str:
    """Human-readable byte count."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}GiB"  # pragma: no cover


def format_seconds(s: float) -> str:
    if s != s:  # NaN — algorithm not applicable
        return "n/a"
    if s < 1e-3:
        return f"{s * 1e6:.0f}µs"
    if s < 1:
        return f"{s * 1e3:.1f}ms"
    return f"{s:.2f}s"


def render_table(
    title: str,
    rows: Mapping[object, Sequence[Measurement]],
    metric: str = "seconds",
    x_label: str = "x",
) -> str:
    """Render measurements as ``x_label | alg1 | alg2 | ...``.

    ``rows`` maps each x value (τ, N, query name…) to the measurement list
    of all algorithms at that x.
    """
    algorithms: List[str] = []
    for ms in rows.values():
        for m in ms:
            if m.algorithm not in algorithms:
                algorithms.append(m.algorithm)
    header = [x_label] + algorithms
    lines = [title, "=" * len(title), " | ".join(f"{h:>15}" for h in header)]
    lines.append("-" * (18 * len(header)))
    for x, ms in rows.items():
        by_alg = {m.algorithm: m for m in ms}
        cells = [f"{str(x):>15}"]
        for alg in algorithms:
            m = by_alg.get(alg)
            if m is None or not m.ok:
                cells.append(f"{'n/a':>15}")
            elif metric == "seconds":
                cells.append(f"{format_seconds(m.seconds):>15}")
            elif metric == "memory":
                cells.append(f"{format_bytes(m.peak_bytes):>15}")
            elif metric == "throughput":
                cells.append(f"{m.throughput:>15.0f}")
            elif metric == "results":
                cells.append(f"{m.result_count:>15}")
            else:
                raise ValueError(f"unknown metric {metric!r}")
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def render_ratio_table(
    title: str,
    rows: Mapping[object, Sequence[Measurement]],
    baseline: str = "baseline",
    metric: str = "seconds",
    x_label: str = "query",
) -> str:
    """Figure 10 style: every cell as a ratio to BASELINE's value (< 1 wins)."""
    algorithms: List[str] = []
    for ms in rows.values():
        for m in ms:
            if m.algorithm not in algorithms:
                algorithms.append(m.algorithm)
    header = [x_label] + [a for a in algorithms if a != baseline]
    lines = [
        title,
        "=" * len(title),
        f"(each cell: {metric} ratio vs {baseline}; <1 is faster)",
        " | ".join(f"{h:>15}" for h in header),
        "-" * (18 * len(header)),
    ]
    for x, ms in rows.items():
        by_alg = {m.algorithm: m for m in ms}
        base = by_alg.get(baseline)
        cells = [f"{str(x):>15}"]
        for alg in header[1:]:
            m = by_alg.get(alg)
            if m is None or base is None or not m.ok or not base.ok:
                cells.append(f"{'n/a':>15}")
                continue
            if metric == "seconds":
                ratio = m.seconds / base.seconds if base.seconds else float("inf")
            elif metric == "memory":
                ratio = (
                    m.peak_bytes / base.peak_bytes if base.peak_bytes else float("inf")
                )
            else:
                raise ValueError(f"unknown metric {metric!r}")
            cells.append(f"{ratio:>15.2f}")
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def render_stats_table(
    title: str,
    rows: Mapping[object, Sequence[Measurement]],
    counters: Optional[Sequence[str]] = None,
    x_label: str = "x",
) -> str:
    """Execution-counter table: one block per x value, one line per algorithm.

    ``counters`` restricts the columns; by default the union of all
    counter names present in the measurements is shown (timers excluded —
    they are profiling aids, not workload descriptors). Measurements
    taken without ``collect_stats=True`` render as ``-``.
    """
    if counters is None:
        names: List[str] = []
        for ms in rows.values():
            for m in ms:
                if m.stats is None:
                    continue
                for name in m.stats.counters:
                    if name not in names:
                        names.append(name)
        counters = sorted(names)
    width = max([len(c) for c in counters] + [12])
    lines = [title, "=" * len(title)]
    for x, ms in rows.items():
        lines.append(f"{x_label} = {x}")
        header = ["algorithm".rjust(16)] + [c.rjust(width) for c in counters]
        lines.append(" | ".join(header))
        lines.append("-" * ((width + 3) * (len(counters) + 1)))
        for m in ms:
            cells = [m.algorithm.rjust(16)]
            for c in counters:
                if m.stats is None or c not in m.stats.counters:
                    cells.append("-".rjust(width))
                else:
                    cells.append(str(m.stats.counters[c]).rjust(width))
            lines.append(" | ".join(cells))
    return "\n".join(lines)


def render_scaling_table(
    title: str,
    rows: Mapping[str, Sequence[Measurement]],
) -> str:
    """Parallel-speedup table: one row per algorithm, one column per workers.

    ``rows`` maps an algorithm name to its
    :func:`~repro.bench.harness.measure_scaling` output. Each cell shows
    the wall time and the speedup over that algorithm's ``workers == 1``
    anchor (``×1.0`` by construction); cells whose results failed
    cross-validation render as ``MISMATCH``.
    """
    workers: List[int] = []
    for ms in rows.values():
        for m in ms:
            if m.workers not in workers:
                workers.append(m.workers)
    workers.sort()
    header = ["algorithm"] + [f"workers={w}" for w in workers]
    lines = [title, "=" * len(title), " | ".join(f"{h:>18}" for h in header)]
    lines.append("-" * (21 * len(header)))
    for name, ms in rows.items():
        by_workers = {m.workers: m for m in ms}
        anchor = by_workers.get(1)
        cells = [f"{name:>18}"]
        for w in workers:
            m = by_workers.get(w)
            if m is None:
                cells.append(f"{'n/a':>18}")
            elif not m.ok:
                cells.append(f"{'MISMATCH':>18}")
            else:
                cell = format_seconds(m.seconds)
                if anchor is not None and anchor.ok and m.seconds > 0:
                    cell += f" (×{anchor.seconds / m.seconds:.2f})"
                cells.append(f"{cell:>18}")
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def render_series(
    title: str,
    xs: Sequence[object],
    series: Mapping[str, Sequence[float]],
    x_label: str = "x",
    fmt: str = "{:.3g}",
) -> str:
    """Plain multi-series table for precomputed numbers (e.g. Figure 1)."""
    names = list(series)
    header = [x_label] + names
    lines = [title, "=" * len(title), " | ".join(f"{h:>12}" for h in header)]
    lines.append("-" * (15 * len(header)))
    for i, x in enumerate(xs):
        cells = [f"{str(x):>12}"]
        for name in names:
            cells.append(f"{fmt.format(series[name][i]):>12}")
        lines.append(" | ".join(cells))
    return "\n".join(lines)
