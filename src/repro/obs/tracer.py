"""The pluggable tracing protocol behind ``temporal_join(..., stats=...)``.

Every algorithm accepts ``stats``: any object satisfying :class:`Tracer`.
:class:`~repro.obs.stats.ExecutionStats` is the standard recording
implementation; :class:`NullTracer` (singleton :data:`NULL_TRACER`) is
the no-op one.

Below the entry points ``stats`` is always a tracer: a public function
that accepts ``stats=None`` turns it into :data:`NULL_TRACER` in its
first line, and everything it calls records unconditionally — one code
path per route, traced or not. Disabled tracing stays free because no
tracer call runs per row or per event: sweep states and binary sweeps
count in locals (or derive a counter from a total the loop already
has) and record once per call, :meth:`NullTracer.timer` returns one
shared no-op context manager, and counters that cost work to compute go
through :meth:`Tracer.derive`, which the null tracer never calls.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable


@runtime_checkable
class Tracer(Protocol):
    """Recording interface used by the evaluation strategies."""

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the monotone counter ``name``."""
        ...

    def peak(self, name: str, value: int) -> None:
        """Report a high-water-mark sample for ``name``."""
        ...

    def observe(self, name: str, value: int) -> None:
        """Report one sample of the size distribution ``name``."""
        ...

    def timer(self, phase: str):
        """Context manager accumulating wall-clock time for ``phase``."""
        ...

    def add_time(self, phase: str, seconds: float) -> None:
        """Add a pre-measured duration to ``phase``."""
        ...

    def note(self, name: str, text: str) -> None:
        """Record a string annotation (e.g. a fallback reason)."""
        ...

    def merge(self, other) -> object:
        """Fold a recorded :class:`~repro.obs.stats.ExecutionStats` in."""
        ...

    def derive(self, record: Callable[..., None], *args) -> None:
        """Call ``record(self, *args)``: for counters that cost work to compute."""
        ...


class _NullTimer:
    """The context manager every :meth:`NullTracer.timer` call returns."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_TIMER = _NullTimer()


class NullTracer:
    """Tracer that records nothing (safe to share; it has no state)."""

    __slots__ = ()

    def incr(self, name: str, amount: int = 1) -> None:
        pass

    def peak(self, name: str, value: int) -> None:
        pass

    def observe(self, name: str, value: int) -> None:
        pass

    def timer(self, phase: str) -> _NullTimer:
        return _NULL_TIMER

    def add_time(self, phase: str, seconds: float) -> None:
        pass

    def note(self, name: str, text: str) -> None:
        pass

    def merge(self, other) -> "NullTracer":
        return self

    def derive(self, record: Callable[..., None], *args) -> None:
        pass


NULL_TRACER = NullTracer()
