"""Binary hash joins and semijoins over temporal relations.

These primitives treat the valid interval as a payload: the binary join
intersects the two intervals and (by default) drops pairs whose
intersection is empty, which makes it a *binary temporal join* building
block as well. Passing ``temporal=False`` keeps all value-matching pairs
with interval ``∩`` replaced by the pair's intersection-or-``always`` —
used where the paper's algorithms explicitly ignore temporal predicates
(the JOINFIRST strategy filters only at the end via its own path).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.interval import Interval
from ..core.relation import TemporalRelation


def shared_attrs(left: TemporalRelation, right: TemporalRelation) -> List[str]:
    """Join attributes: attributes present in both schemas, left order."""
    right_set = set(right.attrs)
    return [a for a in left.attrs if a in right_set]


def hash_join(
    left: TemporalRelation,
    right: TemporalRelation,
    name: Optional[str] = None,
    temporal: bool = True,
) -> TemporalRelation:
    """Natural join of two relations with interval intersection.

    The output schema is ``left.attrs`` followed by the right-only
    attributes. With ``temporal=True`` (default) pairs with disjoint
    intervals are dropped and outputs carry the intersection; with
    ``temporal=False`` every value match survives and outputs carry the
    intersection when non-empty, else the left interval (the temporal
    information is declared meaningless by the caller).

    When the relations share no attributes this is a Cartesian product,
    exactly as a natural join should behave.
    """
    on = shared_attrs(left, right)
    right_extra = [a for a in right.attrs if a not in set(left.attrs)]
    right_extra_pos = right.positions(right_extra)
    out_attrs = tuple(left.attrs) + tuple(right_extra)

    groups = right.group_by(on)
    left_pos = left.positions(on)
    rows: List[Tuple[Tuple[object, ...], Interval]] = []
    for lvalues, livl in left:
        key = tuple(lvalues[p] for p in left_pos)
        for rvalues, rivl in groups.get(key, ()):
            joint = livl.intersect(rivl)
            if joint is None:
                if temporal:
                    continue
                joint = livl
            rows.append(
                (lvalues + tuple(rvalues[p] for p in right_extra_pos), joint)
            )
    out = TemporalRelation(
        name or f"({left.name} ⋈ {right.name})", out_attrs, check_distinct=False
    )
    out._rows = rows
    return out


def semijoin(
    left: TemporalRelation,
    right: TemporalRelation,
    name: Optional[str] = None,
) -> TemporalRelation:
    """``left ⋉ right``: keep left rows with a value match in right.

    Intervals are *not* intersected — the Yannakakis reducer uses value
    semijoins only; temporal filtering happens during enumeration. With no
    shared attributes the semijoin keeps everything iff ``right`` is
    non-empty (the Cartesian-product convention).
    """
    on = shared_attrs(left, right)
    if not on:
        kept = list(left.rows) if len(right) else []
        out = TemporalRelation(name or left.name, left.attrs, check_distinct=False)
        out._rows = kept
        return out
    keys = {tuple(v[p] for p in right.positions(on)) for v, _ in right}
    left_pos = left.positions(on)
    out = TemporalRelation(name or left.name, left.attrs, check_distinct=False)
    out._rows = [
        (v, iv) for v, iv in left if tuple(v[p] for p in left_pos) in keys
    ]
    return out


def estimate_join_size(
    left: TemporalRelation, right: TemporalRelation
) -> float:
    """System-R style cardinality estimate for the join-order search.

    ``|L ⋈ R| ≈ |L| · |R| / max(d_L(on), d_R(on))`` where ``d`` counts
    distinct join-key values; a Cartesian product estimates ``|L| · |R|``.
    """
    on = shared_attrs(left, right)
    if not on:
        return float(len(left)) * float(len(right))
    d = max(left.key_cardinality(on), right.key_cardinality(on), 1)
    return float(len(left)) * float(len(right)) / d


def lookup_index(
    relation: TemporalRelation,
) -> Dict[Tuple[object, ...], Interval]:
    """Exact-match interval lookup (tuples are distinct, so this is a map)."""
    return {values: interval for values, interval in relation}
