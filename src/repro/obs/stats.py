"""Execution-statistics container: counters, peaks, distributions, timers.

:class:`ExecutionStats` is the standard recording implementation of the
:class:`~repro.obs.tracer.Tracer` protocol. One instance accumulates the
telemetry of one join execution (or several, when deliberately reused —
all operations merge additively, so a shared instance aggregates).

These recording primitives cover everything the algorithms report:

* :meth:`incr` — monotone event counters (sweep events, ENUMERATE calls);
* :meth:`peak` — high-water marks (active-set size), merged by ``max``;
* :meth:`observe` — size distributions (bag cardinalities, intermediate
  sizes, scan lengths), stored as ``name.count`` / ``name.total`` /
  ``name.max`` so no sample list is retained;
* :meth:`timer` — monotonic (``perf_counter``) phase timers, accumulated
  under ``phase.*`` keys in :attr:`timers`;
* :meth:`note` — string annotations (e.g. ``kernel.fallback_reason``)
  for facts that are not numbers, kept in :attr:`notes` (last write
  wins, like an attribute);
* :meth:`derive` — runs a recording function for a counter that costs
  work to compute (the null tracer skips it).

The counter glossary lives in ``DESIGN.md`` (section "Execution
telemetry"); tests assert exact values for the load-bearing ones.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional


class ExecutionStats:
    """Mutable telemetry bag for one join execution (a recording Tracer)."""

    __slots__ = ("counters", "timers", "notes")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}
        self.notes: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Recording primitives (the Tracer protocol)
    # ------------------------------------------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at 0)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        """Record a high-water mark: keep the max of all reported values."""
        counters = self.counters
        if value > counters.get(name, 0):
            counters[name] = value

    def observe(self, name: str, value: int) -> None:
        """Record one sample of a size distribution.

        Keeps ``name.count``, ``name.total`` and ``name.max`` — enough for
        mean/max reporting without retaining samples.
        """
        counters = self.counters
        counters[name + ".count"] = counters.get(name + ".count", 0) + 1
        counters[name + ".total"] = counters.get(name + ".total", 0) + value
        if value > counters.get(name + ".max", 0):
            counters[name + ".max"] = value

    @contextmanager
    def timer(self, phase: str) -> Iterator[None]:
        """Accumulate wall-clock (monotonic) time under ``timers[phase]``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(phase, time.perf_counter() - start)

    def add_time(self, phase: str, seconds: float) -> None:
        """Add a pre-measured duration to ``timers[phase]``."""
        self.timers[phase] = self.timers.get(phase, 0.0) + seconds

    def note(self, name: str, text: str) -> None:
        """Record a string annotation (last write wins)."""
        self.notes[name] = text

    def derive(self, record: Callable[..., None], *args) -> None:
        """Call ``record(self, *args)`` (see :meth:`Tracer.derive`)."""
        record(self, *args)

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    def get(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)

    def __getitem__(self, name: str) -> int:
        return self.counters[name]

    def __contains__(self, name: str) -> bool:
        return name in self.counters

    def __bool__(self) -> bool:
        return bool(self.counters) or bool(self.timers) or bool(self.notes)

    def mean(self, name: str) -> Optional[float]:
        """Mean of an :meth:`observe` distribution, or ``None`` if unseen."""
        count = self.counters.get(name + ".count", 0)
        if not count:
            return None
        return self.counters.get(name + ".total", 0) / count

    def as_dict(self) -> Dict[str, object]:
        """Flat ``{name: value}`` snapshot of counters, timers and notes."""
        out: Dict[str, object] = dict(self.counters)
        out.update(self.timers)
        out.update(self.notes)
        return out

    # ------------------------------------------------------------------
    # Combination and display
    # ------------------------------------------------------------------
    def merge(self, other: "ExecutionStats") -> "ExecutionStats":
        """Fold ``other`` into self (counters add, ``*_peak``/``.max`` max)."""
        for name, value in other.counters.items():
            if name.endswith((".max", "_peak")):
                self.peak(name, value)
            else:
                self.incr(name, value)
        for phase, seconds in other.timers.items():
            self.timers[phase] = self.timers.get(phase, 0.0) + seconds
        self.notes.update(other.notes)
        return self

    def render(self) -> str:
        """Aligned ``name  value`` listing: counters, timers, then notes."""
        lines = []
        width = max(
            (len(n) for n in (*self.counters, *self.timers, *self.notes)),
            default=0,
        )
        for name in sorted(self.counters):
            lines.append(f"{name:<{width}}  {self.counters[name]}")
        for phase in sorted(self.timers):
            lines.append(f"{phase:<{width}}  {self.timers[phase] * 1e3:.2f}ms")
        for name in sorted(self.notes):
            lines.append(f"{name:<{width}}  {self.notes[name]}")
        return "\n".join(lines) if lines else "(no telemetry recorded)"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExecutionStats(counters={len(self.counters)}, "
            f"timers={len(self.timers)}, notes={len(self.notes)})"
        )
