"""Closed time intervals and disjoint interval sets.

The paper attaches to every tuple a *valid interval* ``[t-, t+]`` (Section
2.1). Intervals here are closed on both ends and may be unbounded on either
side, which lets a non-temporal relation participate in a temporal join by
using ``Interval.always()`` (= ``(-inf, +inf)``).

Two closed intervals intersect iff ``max(lo1, lo2) <= min(hi1, hi2)`` —
touching endpoints *do* count as intersecting, which is why the sweep in
:mod:`repro.algorithms.timefirst` processes insertions before expirations at
equal timestamps.

:class:`IntervalSet` implements the "set of disjoint intervals" extension
mentioned in the paper's remarks (a tuple inserted and deleted repeatedly,
or coalescing after projection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import IntervalError

Number = Union[int, float]

_NEG_INF = float("-inf")
_POS_INF = float("inf")


@dataclass(frozen=True, order=True)
class Interval:
    """A closed interval ``[lo, hi]`` on the time axis.

    ``lo`` may be ``-inf`` and ``hi`` may be ``+inf``. A degenerate interval
    with ``lo == hi`` is a single instant and is perfectly valid: it is how
    instant-stamped data is represented before the τ-widening transform of
    :mod:`repro.core.durability`.
    """

    lo: Number
    hi: Number

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise IntervalError(f"empty interval literal [{self.lo}, {self.hi}]")
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise IntervalError("interval endpoints must not be NaN")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def always() -> "Interval":
        """The interval ``(-inf, +inf)`` used for non-temporal tuples.

        Every call returns the same instance: intervals are frozen and no
        code mutates an existing one, so callers can share it.
        """
        return _ALWAYS

    @staticmethod
    def instant(t: Number) -> "Interval":
        """The degenerate interval ``[t, t]``."""
        return Interval(t, t)

    @classmethod
    def _fast(cls, lo: Number, hi: Number) -> "Interval":
        """Unchecked construction for hot sweep kernels.

        Skips ``__init__``/``__post_init__`` validation (ordering and NaN
        checks), which dominates per-pair cost in the interval-join inner
        loops. Callers must guarantee ``lo <= hi`` and non-NaN endpoints —
        true by construction wherever both values are endpoints of already
        validated intervals and ``lo`` is a max of los / ``hi`` a min of
        his. The resulting object is indistinguishable from a checked one
        (same fields, equality, hash, ordering).
        """
        self = object.__new__(cls)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        return self

    @staticmethod
    def coerce(value: "IntervalLike") -> "Interval":
        """Build an :class:`Interval` from an interval, pair, or instant."""
        if isinstance(value, Interval):
            return value
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return Interval(value[0], value[1])
        if isinstance(value, (int, float)):
            return Interval.instant(value)
        raise IntervalError(f"cannot interpret {value!r} as an interval")

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains(self, t: Number) -> bool:
        """True iff timestamp ``t`` lies inside this interval."""
        return self.lo <= t <= self.hi

    def intersects(self, other: "Interval") -> bool:
        """True iff the two closed intervals share at least one instant."""
        return max(self.lo, other.lo) <= min(self.hi, other.hi)

    def covers(self, other: "Interval") -> bool:
        """True iff ``other`` is fully contained in this interval."""
        return self.lo <= other.lo and other.hi <= self.hi

    def precedes(self, other: "Interval", gap: Number = 0) -> bool:
        """True iff this interval ends at least ``gap`` before ``other``."""
        return self.hi + gap <= other.lo

    @property
    def is_bounded(self) -> bool:
        """True iff neither endpoint is infinite."""
        return self.lo > _NEG_INF and self.hi < _POS_INF

    @property
    def is_instant(self) -> bool:
        """True iff the interval is a single point."""
        return self.lo == self.hi

    # ------------------------------------------------------------------
    # Measures and combinators
    # ------------------------------------------------------------------
    @property
    def duration(self) -> Number:
        """Length of the interval (the paper's *durability*); may be inf."""
        return self.hi - self.lo

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        """Intersection with ``other``, or ``None`` when disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def shift(self, delta: Number) -> "Interval":
        """Translate both endpoints by ``delta``."""
        return Interval(self.lo + delta, self.hi + delta)

    def shrink(self, amount: Number) -> Optional["Interval"]:
        """Shrink both ends inward by ``amount`` (the τ/2 transform).

        Returns ``None`` when the interval vanishes, mirroring the paper's
        rule that tuples with empty shrunk intervals are removed. An
        infinite endpoint is a *fixed point*: an unbounded side stays
        unbounded no matter the amount, so ``always().shrink(inf)`` is
        ``always()`` rather than the former opaque ``NaN`` failure
        (``-inf + inf``). Durability agrees: an unbounded interval has
        infinite duration and survives every threshold.
        """
        lo = self.lo if math.isinf(self.lo) else self.lo + amount
        hi = self.hi if math.isinf(self.hi) else self.hi - amount
        if lo > hi:
            return None
        return Interval(lo, hi)

    def expand(self, amount: Number) -> "Interval":
        """Grow both ends outward by ``amount`` (inverse of :meth:`shrink`).

        Infinite endpoints are fixed points, matching :meth:`shrink`, so
        for finite ``amount`` the round trip ``shrink(a).expand(a)`` is
        the identity on every interval that survives the shrink.
        """
        lo = self.lo if math.isinf(self.lo) else self.lo - amount
        hi = self.hi if math.isinf(self.hi) else self.hi + amount
        return Interval(lo, hi)

    def clip(self, other: "Interval") -> Optional["Interval"]:
        """Alias of :meth:`intersect`, reads better when pruning residuals."""
        return self.intersect(other)

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Number]:
        yield self.lo
        yield self.hi

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lo = "-inf" if self.lo == _NEG_INF else repr(self.lo)
        hi = "+inf" if self.hi == _POS_INF else repr(self.hi)
        return f"[{lo}, {hi}]"


IntervalLike = Union[Interval, Tuple[Number, Number], List[Number], Number]

_ALWAYS = Interval(_NEG_INF, _POS_INF)


def endpoint_eq(a: Number, b: Number) -> bool:
    """Exact identity of two *stored* interval endpoints.

    Valid only for endpoints copied verbatim from the same source (e.g. a
    cached ``max`` against the interval it came from) — never for values
    that went through independent τ/2 shrink/expand arithmetic, where
    float rounding makes exact equality meaningless. Keeping the ``==``
    here, in the module that owns canonical endpoint comparisons, lets
    call sites state that intent instead of carrying lint suppressions.
    """
    return a == b


def intersect_all(intervals: Iterable[Interval]) -> Optional[Interval]:
    """Intersect an iterable of intervals; ``None`` if the result is empty.

    An empty iterable yields ``Interval.always()`` — the neutral element —
    matching the convention that a join over zero temporal relations imposes
    no temporal constraint.
    """
    lo = _NEG_INF
    hi = _POS_INF
    for iv in intervals:
        if iv.lo > lo:
            lo = iv.lo
        if iv.hi < hi:
            hi = iv.hi
        if lo > hi:
            return None
    return Interval(lo, hi)


class IntervalSet:
    """An immutable set of pairwise-disjoint, coalesced closed intervals.

    Supports the multi-interval tuple model from the paper's remarks: a
    tuple that is inserted and deleted several times carries one interval
    per validity episode. Construction coalesces overlapping or touching
    intervals, keeps them sorted, and the set behaves like a sequence.
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[IntervalLike] = ()) -> None:
        coerced = sorted(
            (Interval.coerce(iv) for iv in intervals), key=lambda iv: (iv.lo, iv.hi)
        )
        merged: List[Interval] = []
        for iv in coerced:
            if merged and iv.lo <= merged[-1].hi:
                last = merged[-1]
                if iv.hi > last.hi:
                    merged[-1] = Interval(last.lo, iv.hi)
            else:
                merged.append(iv)
        self._intervals: Tuple[Interval, ...] = tuple(merged)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __getitem__(self, idx: int) -> Interval:
        return self._intervals[idx]

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(iv) for iv in self._intervals)
        return f"IntervalSet({{{inner}}})"

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def contains(self, t: Number) -> bool:
        """True iff some member interval contains timestamp ``t``."""
        return any(iv.contains(t) for iv in self._intervals)

    def total_duration(self) -> Number:
        """Sum of member durations."""
        return sum(iv.duration for iv in self._intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """Pointwise intersection of two disjoint-interval sets.

        A linear merge over the two sorted sequences, so the cost is
        ``O(len(self) + len(other))``.
        """
        out: List[Interval] = []
        i, j = 0, 0
        a, b = self._intervals, other._intervals
        while i < len(a) and j < len(b):
            hit = a[i].intersect(b[j])
            if hit is not None:
                out.append(hit)
            if a[i].hi <= b[j].hi:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Coalesced union of the two sets."""
        return IntervalSet(list(self._intervals) + list(other._intervals))

    def shrink(self, amount: Number) -> "IntervalSet":
        """Shrink each member inward, dropping the ones that vanish."""
        kept = []
        for iv in self._intervals:
            shrunk = iv.shrink(amount)
            if shrunk is not None:
                kept.append(shrunk)
        return IntervalSet(kept)

    def filter_durable(self, tau: Number) -> "IntervalSet":
        """Keep only member intervals with duration ≥ ``tau``."""
        return IntervalSet(iv for iv in self._intervals if iv.duration >= tau)

    @property
    def span(self) -> Optional[Interval]:
        """Smallest single interval covering the whole set (None if empty)."""
        if not self._intervals:
            return None
        return Interval(self._intervals[0].lo, self._intervals[-1].hi)


def coalesce(intervals: Sequence[IntervalLike]) -> List[Interval]:
    """Convenience: coalesce a sequence of interval-likes into a sorted list."""
    return list(IntervalSet(intervals))
