"""Join result containers shared by every algorithm.

All algorithms in :mod:`repro.algorithms` return a :class:`JoinResultSet`:
an ordered collection of ``(values, interval)`` pairs where ``values`` is
laid out in the query's output attribute order. The container offers the
operations the experiments need — durability filtering, counting by
threshold (Figure 1 right), normalization for cross-algorithm equality —
without imposing any cost on the enumeration hot path (results append to a
plain list).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .errors import SchemaError
from .interval import Interval, Number

ResultRow = Tuple[Tuple[object, ...], Interval]

_NEG_INF = float("-inf")
_POS_INF = float("inf")


class JoinResultSet:
    """Ordered temporal join results with their valid intervals."""

    __slots__ = ("attrs", "_rows")

    def __init__(
        self,
        attrs: Sequence[str],
        rows: Iterable[ResultRow] = (),
    ) -> None:
        self.attrs: Tuple[str, ...] = tuple(attrs)
        self._rows: List[ResultRow] = list(rows)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[ResultRow]:
        return iter(self._rows)

    def __getitem__(self, idx: int) -> ResultRow:
        return self._rows[idx]

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JoinResultSet(attrs={list(self.attrs)}, k={len(self._rows)})"

    def append(self, values: Tuple[object, ...], interval: Interval) -> None:
        """Hot-path append used by the enumeration procedures."""
        self._rows.append((values, interval))

    def extend(self, rows: Iterable[ResultRow]) -> None:
        self._rows.extend(rows)

    @property
    def rows(self) -> List[ResultRow]:
        return self._rows

    # ------------------------------------------------------------------
    # Comparisons and transformations
    # ------------------------------------------------------------------
    def normalized(self) -> List[ResultRow]:
        """Sorted copy of the rows, for cross-algorithm equality checks."""
        return sorted(self._rows, key=lambda r: (r[0], r[1].lo, r[1].hi))

    def same_results(self, other: "JoinResultSet") -> bool:
        """True iff both sets contain exactly the same (values, interval) rows."""
        return self.attrs == other.attrs and self.normalized() == other.normalized()

    def filter_durable(self, tau: Number) -> "JoinResultSet":
        """Keep results whose valid interval has duration ≥ ``tau``."""
        return JoinResultSet(
            self.attrs,
            ((v, iv) for v, iv in self._rows if iv.duration >= tau),
        )

    def expand_intervals(self, amount: Number) -> "JoinResultSet":
        """Undo a τ/2 shrink on the *result* intervals.

        Algorithms evaluate τ-durable joins on the shrunk instance; the
        result intervals there are the shrunk intersections, so expanding
        them by τ/2 recovers the original valid intervals.

        Same arithmetic as :meth:`Interval.expand` (infinite endpoints are
        fixed points), but a finite, positive ``amount`` is checked
        once instead of every expanded interval being re-validated: it
        keeps endpoints non-NaN and ``lo <= hi``. Any other amount takes
        the checked per-row path (``-inf + inf`` would be NaN there).
        """
        if amount == 0:
            return self
        if not 0 < amount < _POS_INF:
            return JoinResultSet(
                self.attrs,
                ((v, iv.expand(amount)) for v, iv in self._rows),
            )
        fast = Interval._fast
        rows = []
        append = rows.append
        for values, iv in self._rows:
            lo = iv.lo
            hi = iv.hi
            if lo > _NEG_INF:
                lo = lo - amount
            if hi < _POS_INF:
                hi = hi + amount
            append((values, fast(lo, hi)))
        out = JoinResultSet(self.attrs)
        out._rows = rows
        return out

    def values_only(self) -> List[Tuple[object, ...]]:
        """Just the value tuples, for comparisons against non-temporal joins."""
        return [v for v, _ in self._rows]

    def count_by_thresholds(self, thresholds: Sequence[Number]) -> Dict[Number, int]:
        """For each τ, how many results have durability ≥ τ (Figure 1 right)."""
        out: Dict[Number, int] = {}
        durations = sorted(iv.duration for _, iv in self._rows)
        import bisect

        for tau in thresholds:
            idx = bisect.bisect_left(durations, tau)
            out[tau] = len(durations) - idx
        return out

    def project(self, attrs: Sequence[str]) -> "JoinResultSet":
        """Project results (with duplicate elimination, intervals coalesced
        by keeping the widest span per value tuple)."""
        pos = [self.attrs.index(a) for a in attrs]
        best: Dict[Tuple[object, ...], Interval] = {}
        order: List[Tuple[object, ...]] = []
        for values, interval in self._rows:
            key = tuple(values[p] for p in pos)
            if key not in best:
                best[key] = interval
                order.append(key)
            else:
                cur = best[key]
                best[key] = Interval(min(cur.lo, interval.lo), max(cur.hi, interval.hi))
        return JoinResultSet(attrs, ((k, best[k]) for k in order))


def merge_result_sets(
    attrs: Sequence[str], parts: Iterable[JoinResultSet]
) -> JoinResultSet:
    """Concatenate result sets that share an attribute layout."""
    out = JoinResultSet(attrs)
    for part in parts:
        if tuple(part.attrs) != tuple(attrs):
            raise SchemaError(
                f"cannot merge results with layout {part.attrs} into {attrs}"
            )
        out.extend(part.rows)
    return out
