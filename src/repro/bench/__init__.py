"""Benchmark harness: measurements, comparisons, figure-style reporting.

``harness`` and ``reporting`` serve the per-figure runners in
``benchmarks/``; ``gates`` (``python -m repro.bench.gates``) is the one
ratio-gated runner behind ``make bench-check`` and ``BENCH_gates.json``.
"""

from .harness import (
    Measurement,
    compare_algorithms,
    measure,
    measure_scaling,
    scaling_exponent,
)
from .reporting import (
    format_bytes,
    format_seconds,
    render_ratio_table,
    render_scaling_table,
    render_series,
    render_table,
)

__all__ = [
    "Measurement",
    "compare_algorithms",
    "format_bytes",
    "format_seconds",
    "measure",
    "measure_scaling",
    "render_ratio_table",
    "render_scaling_table",
    "render_series",
    "render_table",
    "scaling_exponent",
]
