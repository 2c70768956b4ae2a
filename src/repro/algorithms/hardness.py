"""Executable hardness constructions (Section 5).

Theorem 14 reduces triangle listing — 3SUM-hard to do in ``O(N^(4/3-ε))``
[69] — to the line-3 temporal join. :func:`triangle_listing_instance`
builds the reduction's temporal instance from a graph, and
:func:`triangles_from_line3_results` maps join results back to triangles,
so the one-to-one correspondence claimed in the proof is testable (and is
tested).

Theorem 15's *non-temporal counterpart* ``Q_S`` — turn the valid interval
of the relations in ``S ⊆ E`` into an ordinary join attribute — is built
by :func:`nontemporal_counterpart`; :func:`counterpart_instance` performs
the accompanying instance translation for instant-stamped inputs, the
case the reduction's hard instances use.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Sequence, Set, Tuple

from ..core.errors import QueryError
from ..core.interval import Interval
from ..core.query import JoinQuery
from ..core.relation import TemporalRelation
from ..core.result import JoinResultSet


def triangle_listing_instance(
    edges: Iterable[Tuple[int, int]]
) -> Dict[str, TemporalRelation]:
    """The Theorem 14 instance of ``Q_L3`` for an undirected graph.

    For each edge ``(u, v)``:

    * ``⟨(u+v, u), [v, v]⟩`` and ``⟨(u+v, v), [u, u]⟩`` into ``R1``;
    * ``⟨(u, v), (-inf, +inf)⟩`` and ``⟨(v, u), (-inf, +inf)⟩`` into ``R2``;
    * ``⟨(u, u+v), [v, v]⟩`` and ``⟨(v, u+v), [u, u]⟩`` into ``R3``.

    Vertices must be integers (the construction adds them).
    """
    r1, r2, r3 = [], [], []
    seen: Set[Tuple[int, int]] = set()
    for u, v in edges:
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        r1.append(((u + v, u), Interval.instant(v)))
        r1.append(((u + v, v), Interval.instant(u)))
        r2.append(((u, v), Interval.always()))
        r2.append(((v, u), Interval.always()))
        r3.append(((u, u + v), Interval.instant(v)))
        r3.append(((v, u + v), Interval.instant(u)))
    return {
        "R1": TemporalRelation("R1", ("x1", "x2"), r1),
        "R2": TemporalRelation("R2", ("x2", "x3"), r2),
        "R3": TemporalRelation("R3", ("x3", "x4"), r3),
    }


def triangles_from_line3_results(
    results: JoinResultSet,
) -> Set[FrozenSet[int]]:
    """Recover the triangle set from the reduction's join results.

    A result ``⟨(s, b, c, t), [w, w]⟩`` arises from edges ``(b, w)`` (via
    ``s = b + w``), ``(b, c)``, and ``(c, w)`` (via ``t = c + w``) — the
    triangle ``{b, c, w}``.
    """
    triangles: Set[FrozenSet[int]] = set()
    for values, interval in results:
        _, b, c, _ = values
        w = interval.lo
        triangles.add(frozenset((b, c, int(w))))
    return triangles


def nontemporal_counterpart(
    query: JoinQuery, s_edges: Sequence[str], time_attr: str = "__t__"
) -> JoinQuery:
    """Theorem 15's counterpart query ``Q_S``.

    Every edge in ``s_edges`` gains the shared time attribute; the rest
    are unchanged. The temporal join of ``Q`` is at least as hard as the
    non-temporal join of any such ``Q_S``.
    """
    edges: Dict[str, Tuple[str, ...]] = {}
    s = set(s_edges)
    for name in query.edge_names:
        attrs = query.edge(name)
        edges[name] = attrs + (time_attr,) if name in s else attrs
    return JoinQuery(edges, attr_order=tuple(query.attrs) + (time_attr,))


def counterpart_instance(
    query: JoinQuery,
    database: Dict[str, TemporalRelation],
    s_edges: Sequence[str],
    time_attr: str = "__t__",
) -> Dict[str, TemporalRelation]:
    """Instance translation for :func:`nontemporal_counterpart`.

    Relations in ``S`` must be instant-stamped (``[t, t]`` intervals): the
    instant becomes the value of the new time attribute and intervals turn
    into ``(-inf, +inf)``. Relations outside ``S`` are passed through.
    The non-temporal join of the result equals (modulo the extra column)
    the temporal join of the original when the original's non-``S``
    relations are non-temporal — exactly the shape of the hard instances.
    """
    s = set(s_edges)
    out: Dict[str, TemporalRelation] = {}
    for name in query.edge_names:
        rel = database[name]
        if name not in s:
            out[name] = rel
            continue
        rows = []
        for values, interval in rel:
            if not interval.is_instant:
                raise QueryError(
                    f"counterpart translation needs instant stamps in {name!r}, "
                    f"found {interval!r}"
                )
            rows.append((values + (interval.lo,), Interval.always()))
        out[name] = TemporalRelation(
            name, rel.attrs + (time_attr,), rows
        )
    return out
