"""Columnar execution kernels: interned values, rank-space endpoints.

The kernel engine is a fast path under ``temporal_join(engine=...)``,
not a new algorithm: it replays TIMEFIRST's exact event order over
pre-flattened int arrays and de-interns at emission, so results are
indistinguishable from the object path. See DESIGN.md §"Kernel layer".

Layout:

* :mod:`~repro.kernels.columns` — the only module that touches object
  rows: interning, rank compression, the τ/2 shrink in rank space, the
  temporal semijoin pass (also the reduced input of the ``auto``
  route's HYBRID), the single per-call event sort,
  de-interning, shard subsetting, timeline bridging.
* :mod:`~repro.kernels.hierarchy` / :mod:`~repro.kernels.generic` —
  row-id driven sweep states (Theorem 6 / Theorem 9 structures); both
  emit final rows, decoded and widened by τ/2, when built with ``half``.
* :mod:`~repro.kernels.engine` — the one column read every kernel
  route starts from (``kernel_columns``), the one sweep it runs
  (``sweep_columns``), and the
  ``supports_kernel`` capability probe used by the dispatch layer.
* :mod:`~repro.kernels.prepared` — pay the ingest once per *database*:
  :func:`prepare` / :class:`PreparedDatabase` /
  :func:`run_batch` amortize interning, ranking and the event sort
  across a whole standing-query fleet.
"""

from .columns import (
    KernelColumns,
    build_columns,
    deintern_results,
    key_shard_row_ids,
    shard_row_ids,
    shrink_columns,
)
from .prepared import PreparedDatabase, prepare, run_batch
from .engine import (
    KERNEL_ALGORITHMS,
    kernel_columns,
    kernel_sweep,
    make_state,
    prepare_run,
    supports_kernel,
    sweep_columns,
)
from .generic import KernelGenericState
from .hierarchy import KernelHierarchicalState

__all__ = [
    "KERNEL_ALGORITHMS",
    "KernelColumns",
    "KernelGenericState",
    "KernelHierarchicalState",
    "PreparedDatabase",
    "build_columns",
    "deintern_results",
    "kernel_columns",
    "kernel_sweep",
    "key_shard_row_ids",
    "make_state",
    "prepare",
    "prepare_run",
    "run_batch",
    "shard_row_ids",
    "shrink_columns",
    "supports_kernel",
    "sweep_columns",
]
