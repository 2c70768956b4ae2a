"""Kernel fast path for the §3.2 attribute-tree sweep state.

Same dynamic structure as
:class:`repro.algorithms.hierarchical.HierarchicalState` — ``X_u``
support counting over the attribute tree, ENUMERATE via the root-path
membership walk, REPORT via per-subtree fragments — but keyed entirely
on interned ints and driven by row ids:

* every per-event key (path-value permutation, parent group key, the
  ancestor keys of the Algorithm 2 walk inputs) is precomputed once per
  row from the interned columns, so the hot loop does dict operations
  on small int tuples and nothing else;
* upward propagation and the compiled REPORT programs are inherited
  unchanged from the object state — interned ints are ordinary hashable
  values to them — which keeps Theorem 6's update/enumeration bounds
  and the output semantics identical by construction.

With ``half`` given, the programs emit final rows: they decode the
expiring row's path values once per emit and each fragment value once
per fragment (fragments are shared by the product rows built from
them), widen finite endpoints by ``half`` with
:meth:`~repro.core.result.JoinResultSet.expand_intervals`' arithmetic,
and build one interval per row — the emission contract the GHD kernel
state (:mod:`repro.kernels.generic`) shares;
:func:`~repro.kernels.engine.sweep_columns` runs the state this way.
Without ``half`` the sweep emits interned rows with shrunk intervals.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import List, Optional, Tuple

from ..algorithms.hierarchical import HierarchicalState, duplicate_tuple
from ..core.interval import Number
from ..core.query import JoinQuery
from ..core.result import JoinResultSet
from ..obs import NULL_TRACER, Tracer
from .columns import KernelColumns, decode_values


class KernelHierarchicalState(HierarchicalState):
    """Row-id driven :class:`HierarchicalState` over interned columns."""

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
            self._decode = columns.domains
            self._half = half
        nodes = self.tree.nodes
        prep = {}
        for name, leaf in self._leaf_id.items():
            chain: List[Tuple[dict, int, int]] = []
            node_id = nodes[leaf].parent
            while node_id is not None:
                chain.append(
                    (
                        self._state[node_id].support,
                        self._path_len[node_id],
                        self._nchildren[node_id],
                    )
                )
                node_id = nodes[node_id].parent
            prep[name] = (
                leaf,
                nodes[leaf].parent,
                self._perm[name],
                self._parent_path_len[leaf],
                tuple(chain),
            )

        row_pv: List[Tuple[int, ...]] = []
        row_gkey: List[Tuple[int, ...]] = []
        row_leaf: List[int] = []
        row_leaf_parent: List[Optional[int]] = []
        row_chain: List[tuple] = []
        row_names = columns.row_relation
        row_values = columns.row_values
        # Rows of one relation are contiguous (ingest order), so the
        # per-relation constants are looked up once per block.
        start = 0
        for name, block in groupby(row_names):
            count = sum(1 for _ in block)
            leaf, parent, perm, plen, chain = prep[name]
            values = row_values[start:start + count]
            start += count
            if perm == tuple(range(len(values[0]))):
                pvs = values
            else:
                # A non-identity permutation has >= 2 positions, so
                # itemgetter returns tuples.
                pvs = list(map(itemgetter(*perm), values))
            row_pv.extend(pvs)
            row_gkey.extend([pv[:plen] for pv in pvs])
            row_leaf.extend([leaf] * count)
            row_leaf_parent.extend([parent] * count)
            row_chain.extend([chain] * count)
        self._row_pv = row_pv
        self._row_gkey = row_gkey
        self._row_leaf = row_leaf
        self._row_leaf_parent = row_leaf_parent
        self._row_chain = row_chain
        self._row_interval = columns.intervals()
        self._row_relation = row_names
        self._row_values = row_values
        self._domains = columns.domains

    # ------------------------------------------------------------------
    # Row-id sweep interface (the kernel event loop calls only these)
    # ------------------------------------------------------------------
    def insert_row(self, rid: int) -> None:
        leaf = self._row_leaf[rid]
        pv = self._row_pv[rid]
        gkey = self._row_gkey[rid]
        groups = self._state[leaf].groups
        bucket = groups.get(gkey)
        if bucket is None:
            groups[gkey] = {pv: self._row_interval[rid]}
            self._signal_nonempty(self._row_leaf_parent[rid], gkey)
        else:
            if pv in bucket:
                relation = self._row_relation[rid]
                values = decode_values(
                    self._domains, self.query.edge(relation), self._row_values[rid]
                )
                raise duplicate_tuple(relation, values)
            bucket[pv] = self._row_interval[rid]

    def expire_row(self, rid: int, out: JoinResultSet) -> None:
        """ENUMERATE (Algorithm 2) then DELETE for one expiring row."""
        pv = self._row_pv[rid]
        leaf = self._row_leaf[rid]
        for support, path_len, nchildren in self._row_chain[rid]:
            if support.get(pv[:path_len], 0) != nchildren:
                break
        else:
            program = self._programs[leaf]
            if program is None:
                program = self._programs[leaf] = self._compile(leaf)
            program(pv, out)
        # DELETE (Algorithm 1, line 9).
        gkey = self._row_gkey[rid]
        groups = self._state[leaf].groups
        bucket = groups[gkey]
        del bucket[pv]
        if not bucket:
            del groups[gkey]
            self._signal_empty(self._row_leaf_parent[rid], gkey)
