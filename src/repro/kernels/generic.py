"""Kernel fast path for the §3.3 GHD sweep state.

Subclasses :class:`repro.algorithms.generic_state.GenericGHDState` so the
restriction cascade and both enumerators — the seeded join-tree walk of
acyclic queries and the bag materialization + Yannakakis pass of cyclic
ones — stay the single proven implementation, and adds the two things
profiling shows dominate general sweeps on interned columns:

* a row-id sweep interface (``insert_row`` / ``expire_row``) that feeds
  the inherited machinery precomputed interned tuples and interval
  objects — no per-event attribute permutation or object hashing;
* a single-shared-attribute semijoin fast path: line- and chain-shaped
  adjacencies semijoin on one attribute almost always, where building
  ``tuple(v[p] for p in pos)`` keys per candidate row is pure overhead —
  scalar int keys probe the attribute index directly.

With ``half`` given, both enumerators emit final rows, as
:class:`~repro.kernels.hierarchy.KernelHierarchicalState` does: the walk
decodes the values its output getter picks and widens the endpoints it
folds by ``half`` as it builds each row's one interval, and the cyclic
path does the same as it appends the Yannakakis rows;
:func:`~repro.kernels.engine.sweep_columns` runs the state this way.
Equal values share one code, so the walk's value binding cannot change
a decoded value; its endpoint fold order is what fixes endpoint types.
Without ``half`` the sweep emits interned rows with shrunk intervals.
Both additions are pure constant-factor work per Theorem 9 step, so the
``O(N^(fhtw+1) + K)`` bound is untouched.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..algorithms.generic_state import GenericGHDState, Values
from ..algorithms.hierarchical import duplicate_tuple
from ..core.interval import Interval, Number
from ..core.query import JoinQuery
from ..core.result import JoinResultSet
from ..obs import NULL_TRACER, Tracer
from .columns import KernelColumns, decode_values


class KernelGenericState(GenericGHDState):
    """Row-id driven :class:`GenericGHDState` over interned columns."""

    def __init__(
        self,
        query: JoinQuery,
        columns: KernelColumns,
        stats: Tracer = NULL_TRACER,
        *,
        half: Optional[Number] = None,
    ) -> None:
        super().__init__(query, stats=stats)
        if half is not None:
            self._decode = [columns.domains[attr] for attr in query.attrs]
            self._half = half
        self._row_relation = columns.row_relation
        self._row_values = columns.row_values
        self._row_interval = columns.intervals()
        self._domains = columns.domains
        # Per relation: (active dict, attr-index dict, edge attrs) —
        # one lookup per event instead of three.
        self._row_state: Dict[str, tuple] = {
            name: (self._active[name], self._attr_index[name], attrs)
            for name, attrs in self._edge_attrs.items()
        }
        # Shared-attribute positions for the scalar semijoin fast path.
        self._single_pos: Dict[Tuple[str, str], int] = {
            (name, attr): attrs.index(attr)
            for name, attrs in self._edge_attrs.items()
            for attr in attrs
        }

    # ------------------------------------------------------------------
    # Row-id sweep interface
    # ------------------------------------------------------------------
    def insert_row(self, rid: int) -> None:
        values = self._row_values[rid]
        relation = self._row_relation[rid]
        active, index, attrs = self._row_state[relation]
        if values in active:
            decoded = decode_values(self._domains, attrs, values)
            raise duplicate_tuple(relation, decoded)
        active[values] = self._row_interval[rid]
        for attr, value in zip(attrs, values):
            bucket = index[attr].get(value)
            if bucket is None:
                index[attr][value] = {values}
            else:
                bucket.add(values)

    def expire_row(self, rid: int, out: JoinResultSet) -> None:
        relation = self._row_relation[rid]
        values = self._row_values[rid]
        self.enumerate_results(relation, values, self._row_interval[rid], out)
        active, index, attrs = self._row_state[relation]
        del active[values]
        for attr, value in zip(attrs, values):
            bucket = index[attr][value]
            bucket.discard(values)
            if not bucket:
                del index[attr][value]

    # ------------------------------------------------------------------
    # Scalar-key semijoin (single shared attribute)
    # ------------------------------------------------------------------
    def _semijoin_active(
        self,
        target: str,
        source: str,
        shared: List[str],
        restricted: Dict[str, Dict[Values, Interval]],
    ) -> Dict[Values, Interval]:
        if len(shared) != 1:
            return super()._semijoin_active(target, source, shared, restricted)
        attr = shared[0]
        source_pos = self._single_pos[source, attr]
        keys = {v[source_pos] for v in restricted[source]}
        active = self._active[target]
        if len(keys) * 4 <= max(4, len(active)):
            bucket_index = self._attr_index[target][attr]
            out: Dict[Values, Interval] = {}
            get = bucket_index.get
            for key in keys:
                bucket = get(key)
                if bucket:
                    for v in bucket:
                        out[v] = active[v]
            return out
        target_pos = self._single_pos[target, attr]
        return {
            v: ivl for v, ivl in active.items() if v[target_pos] in keys
        }
