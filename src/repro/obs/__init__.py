"""Execution telemetry: counters, phase timers, and the Tracer protocol.

Opt-in observability for every evaluation strategy in
:mod:`repro.algorithms`. Pass an :class:`ExecutionStats` to
``temporal_join(..., stats=...)`` (or call
:func:`repro.algorithms.registry.explain_analyze`) and the chosen
algorithm fills it with the internal quantities that explain its running
time — sweep events, active-set peaks, bag-materialization sizes,
per-binary-join intermediate cardinalities. With ``stats=None`` (the
default) the same code runs against :data:`NULL_TRACER`, whose calls do
nothing; none of them runs per row or per event, so the untraced path
costs a handful of no-op calls per join (see :mod:`repro.obs.tracer`).
"""

from .stats import ExecutionStats
from .tracer import NULL_TRACER, NullTracer, Tracer

__all__ = ["ExecutionStats", "NULL_TRACER", "NullTracer", "Tracer"]
