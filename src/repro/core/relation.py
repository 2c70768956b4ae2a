"""Temporal relations: named schemas over tuples with valid intervals.

A :class:`TemporalRelation` is the paper's ``R_e``: a set of distinct tuples
over the attributes of hyperedge ``e``, each carrying a valid interval
(Section 2.1). Rows are stored as ``(values, Interval)`` pairs where
``values`` is a plain tuple aligned with the relation's attribute order —
cheap to hash, project, and group.

The class provides exactly the primitives the algorithms need: value
projection, selection, grouping by a key, semijoins, interval shrinking (for τ-durable
joins), and schema validation. It deliberately does *not* try to be a full
relational engine; multi-way joins live in :mod:`repro.algorithms` and
:mod:`repro.nontemporal`.
"""

from __future__ import annotations

import math
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .errors import IntervalError, SchemaError
from .interval import Interval, IntervalLike, Number

Values = Tuple[object, ...]
Row = Tuple[Values, Interval]


class TemporalRelation:
    """A temporal relation ``R_e`` with attributes ``attrs``.

    Parameters
    ----------
    name:
        Relation name; used to bind the relation to a query hyperedge.
    attrs:
        Ordered attribute names. Order fixes the layout of each row's
        value tuple.
    rows:
        Iterable of ``(values, interval)`` pairs. ``interval`` accepts
        anything :meth:`Interval.coerce` understands; omit it by passing
        2-tuples of ``(values, None)`` is *not* allowed — non-temporal rows
        should use :meth:`Interval.always`.
    check_distinct:
        When true (default), raise :class:`SchemaError` on duplicate value
        tuples, enforcing the paper's "all tuples in a relation are
        distinct" assumption. Multi-interval data should instead use
        :func:`repro.core.durability.explode_interval_sets`.
    """

    __slots__ = ("name", "attrs", "_rows", "_positions")

    def __init__(
        self,
        name: str,
        attrs: Sequence[str],
        rows: Iterable[Tuple[Sequence[object], IntervalLike]] = (),
        check_distinct: bool = True,
    ) -> None:
        if len(set(attrs)) != len(attrs):
            raise SchemaError(f"relation {name!r} repeats an attribute: {attrs}")
        if not attrs:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        self.name = name
        self.attrs: Tuple[str, ...] = tuple(attrs)
        self._positions: Dict[str, int] = {a: i for i, a in enumerate(self.attrs)}
        self._rows: List[Row] = []
        seen = set() if check_distinct else None
        arity = len(self.attrs)
        for values, interval in rows:
            vt = tuple(values)
            if len(vt) != arity:
                raise SchemaError(
                    f"tuple {vt} has arity {len(vt)}, expected {arity} "
                    f"for relation {name!r}{self.attrs}"
                )
            if seen is not None:
                if vt in seen:
                    raise SchemaError(
                        f"duplicate tuple {vt} in relation {name!r}; the model "
                        "requires distinct tuples (use IntervalSet explosion "
                        "for multi-interval data)"
                    )
                seen.add(vt)
            self._rows.append((vt, Interval.coerce(interval)))

    # ------------------------------------------------------------------
    # Basic container behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TemporalRelation({self.name!r}, attrs={list(self.attrs)}, "
            f"n={len(self._rows)})"
        )

    @property
    def rows(self) -> List[Row]:
        """The underlying ``(values, interval)`` rows (do not mutate)."""
        return self._rows

    def position(self, attr: str) -> int:
        """Index of ``attr`` inside each row's value tuple."""
        try:
            return self._positions[attr]
        except KeyError:
            raise SchemaError(
                f"attribute {attr!r} not in relation {self.name!r}{self.attrs}"
            ) from None

    def positions(self, attrs: Sequence[str]) -> Tuple[int, ...]:
        """Indexes of several attributes, in the order given."""
        return tuple(self.position(a) for a in attrs)

    # ------------------------------------------------------------------
    # Relational primitives
    # ------------------------------------------------------------------
    def project_values(self, values: Values, attrs: Sequence[str]) -> Values:
        """Project one value tuple of this relation onto ``attrs``."""
        pos = self.positions(attrs)
        return tuple(values[p] for p in pos)

    def select(
        self, predicate: Callable[[Values, Interval], bool], name: Optional[str] = None
    ) -> "TemporalRelation":
        """Selection σ_predicate over ``(values, interval)`` rows."""
        return TemporalRelation(
            name or f"σ({self.name})",
            self.attrs,
            ((v, iv) for v, iv in self._rows if predicate(v, iv)),
        )

    def group_by(self, attrs: Sequence[str]) -> Dict[Values, List[Row]]:
        """Group rows by their projection onto ``attrs``.

        This is the grouping primitive behind the §3.2 structure (tuples in
        ``X_u`` grouped by their value over ``V_{p(u)}``) and behind the
        per-key interval joins of the BASELINE algorithm.
        """
        pos = self.positions(attrs)
        groups: Dict[Values, List[Row]] = {}
        for values, interval in self._rows:
            key = tuple(values[p] for p in pos)
            groups.setdefault(key, []).append((values, interval))
        return groups

    def semijoin_keys(
        self, attrs: Sequence[str], keys: Iterable[Values], name: Optional[str] = None
    ) -> "TemporalRelation":
        """Keep rows whose projection onto ``attrs`` appears in ``keys``."""
        key_set = set(keys)
        pos = self.positions(attrs)
        return TemporalRelation(
            name or f"⋉({self.name})",
            self.attrs,
            (
                (v, iv)
                for v, iv in self._rows
                if tuple(v[p] for p in pos) in key_set
            ),
        )

    def shrink(self, amount: Number, name: Optional[str] = None) -> "TemporalRelation":
        """Shrink every interval inward by ``amount``; drop vanished rows.

        This is the per-relation step of the τ-durable reduction: with
        ``amount = τ/2`` the temporal join of the shrunk instance equals
        the τ-durable join of the original (paper §2.1 remarks).

        Same arithmetic as :meth:`Interval.shrink` (infinite endpoints
        are fixed points), but ``amount`` is checked once instead of
        every shrunk interval being re-validated: a non-NaN amount keeps
        endpoints non-NaN, and survivors satisfy ``lo <= hi`` by the
        drop test. Rows stay distinct and of the right arity, so the
        result skips the constructor's checks too.
        """
        if math.isnan(amount):
            raise IntervalError(f"shrink amount must not be NaN, got {amount}")
        isinf = math.isinf
        fast = Interval._fast
        kept = []
        append = kept.append
        for values, interval in self._rows:
            lo = interval.lo
            hi = interval.hi
            if not isinf(lo):
                lo = lo + amount
            if not isinf(hi):
                hi = hi - amount
            if lo <= hi:
                append((values, fast(lo, hi)))
        out = TemporalRelation(name or self.name, self.attrs, check_distinct=False)
        out._rows = kept
        return out

    def map_intervals(
        self,
        fn: Callable[[Interval], Optional[Interval]],
        name: Optional[str] = None,
    ) -> "TemporalRelation":
        """Apply ``fn`` to each interval, dropping rows mapped to ``None``.

        Used by the temporal-predicate reformulations in
        :mod:`repro.core.durability` (lead/lag gaps, relative positioning).
        """
        kept = []
        for values, interval in self._rows:
            mapped = fn(interval)
            if mapped is not None:
                kept.append((values, mapped))
        return TemporalRelation(name or self.name, self.attrs, kept)

    def rename(
        self, mapping: Mapping[str, str], name: Optional[str] = None
    ) -> "TemporalRelation":
        """Rename attributes via ``mapping`` (missing attrs keep their name).

        Self-joins over a single stored table (all the graph-pattern queries
        of Section 6) are expressed by renaming copies of the edge relation.
        """
        new_attrs = [mapping.get(a, a) for a in self.attrs]
        out = TemporalRelation(name or self.name, new_attrs, check_distinct=False)
        out._rows = list(self._rows)
        return out

    def reordered(self, attrs: Sequence[str]) -> "TemporalRelation":
        """The same rows with values laid out in ``attrs`` order.

        ``attrs`` is a permutation of :attr:`attrs`; the relation itself
        when it is already their order.
        """
        attrs = tuple(attrs)
        if attrs == self.attrs:
            return self
        pos = self.positions(attrs)
        out = TemporalRelation(self.name, attrs, check_distinct=False)
        out._rows = [(tuple(values[p] for p in pos), iv) for values, iv in self._rows]
        return out

    def with_name(self, name: str) -> "TemporalRelation":
        """Shallow copy under a different relation name."""
        out = TemporalRelation(name, self.attrs, check_distinct=False)
        out._rows = list(self._rows)
        return out

    # ------------------------------------------------------------------
    # Statistics used by the BASELINE join-order search
    # ------------------------------------------------------------------
    def key_cardinality(self, attrs: Sequence[str]) -> int:
        """Number of distinct values of the projection onto ``attrs``."""
        pos = self.positions(attrs)
        return len({tuple(v[p] for p in pos) for v, _ in self._rows})

    def endpoints(self) -> List[Number]:
        """All interval endpoints, unsorted (the sweep's event times)."""
        out: List[Number] = []
        for _, interval in self._rows:
            out.append(interval.lo)
            out.append(interval.hi)
        return out


def relation_from_pairs(
    name: str,
    attrs: Sequence[str],
    pairs: Iterable[Tuple[Sequence[object], IntervalLike]],
) -> TemporalRelation:
    """Small convenience wrapper mirroring the examples in the paper."""
    return TemporalRelation(name, attrs, pairs)
