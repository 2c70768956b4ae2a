"""Generalized hypertree decompositions, fhtw and hhtw search.

Definition 7 (GHD), Definition 8 (fractional hypertree width fhtw),
Definition 11 (hierarchical hypertree width hhtw) and Definition 13
(guarded GHDs) of the paper live here.

Exact fhtw is NP-hard in general, but the paper's data complexity setting
treats queries as constant-size, and every decomposition the paper uses
(Table 1, Figure 6) has bags that are unions of hyperedges. We therefore
search over *partitions of the edge set*: each group becomes a bag
labelled with the union of its edges' attributes, and the candidate is a
GHD iff the bag hypergraph is α-acyclic (its GYO join tree then satisfies
coverage and the running-intersection property). This recovers the
paper's widths for all studied queries; tests pin the Figure 6 values.

``hhtw`` restricts the same search to candidates whose *bag hypergraph is
hierarchical*, enabling the §3.2 sweep on the derived instance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.classification import is_hierarchical
from ..core.errors import PlanError, QueryError
from ..core.hypergraph import Hypergraph, verify_join_tree
from .cover import rho

#: Hard ceiling on the edge count :func:`enumerate_partition_ghds` will
#: exhaustively scan. Bell(8) = 4140 partitions is still interactive;
#: Bell(12) ≈ 4.2 million each needing a GYO pass is a hang. Larger
#: queries must use the branch-and-bound engine
#: (:func:`repro.nontemporal.search.exact_ghd_search`), which the width
#: functions select by default.
MAX_ENUMERATION_EDGES = 8


@dataclass
class GHD:
    """A generalized hypertree decomposition of a join query.

    Attributes
    ----------
    query:
        The decomposed hypergraph.
    bags:
        Mapping bag name → attribute tuple (the labelling λ).
    parent:
        Join-tree parent map over bag names (roots map to ``None``).
    groups:
        Mapping bag name → list of edge names whose *home* is this bag.
        Every edge is covered by its home bag; edges may additionally be
        contained in other bags (Algorithm 5 exploits that through its
        ``e − λ_u = ∅`` test, not through ``groups``).
    """

    query: Hypergraph
    bags: Dict[str, Tuple[str, ...]]
    parent: Dict[str, Optional[str]]
    groups: Dict[str, List[str]]

    # ------------------------------------------------------------------
    def bag_hypergraph(self) -> Hypergraph:
        """The bags viewed as a hypergraph (the derived query of HYBRID)."""
        return Hypergraph(self.bags)

    def derived_edges(self, bag: str) -> Dict[str, Tuple[str, ...]]:
        """The paper's ``E_u``: every query edge restricted to the bag.

        Returns edge name → non-empty restriction ``e ∩ λ_u``.
        """
        lam = set(self.bags[bag])
        out: Dict[str, Tuple[str, ...]] = {}
        for name in self.query.edge_names:
            restricted = tuple(a for a in self.query.edge(name) if a in lam)
            if restricted:
                out[name] = restricted
        return out

    def bag_width(self, bag: str) -> float:
        """ρ of the bag's derived hypergraph (Definition 8)."""
        return rho(Hypergraph(self.derived_edges(bag)))

    def width(self) -> float:
        """Maximum bag width."""
        return max(self.bag_width(b) for b in self.bags)

    def is_valid(self) -> bool:
        """Coverage + running intersection (Definition 7)."""
        # Coverage: each edge inside some bag.
        for name in self.query.edge_names:
            eattrs = set(self.query.edge(name))
            if not any(eattrs <= set(lam) for lam in self.bags.values()):
                return False
        # Connectivity via the join-tree checker on the bag hypergraph.
        return verify_join_tree(self.bag_hypergraph(), self.parent)

    def is_hierarchical(self) -> bool:
        """True iff the bag hypergraph is a hierarchical query."""
        return is_hierarchical(self.bag_hypergraph())

    def is_trivial(self) -> bool:
        """True iff the GHD is the identity (one bag per edge)."""
        return len(self.bags) == len(self.query.edge_names) and all(
            len(g) == 1 for g in self.groups.values()
        )

    def pretty(self) -> str:
        """Render as the paper's ``(x1x2x3) - (x3x4)`` notation."""
        parts = []
        for name in self.bags:
            attrs = "".join(self.bags[name])
            par = self.parent.get(name)
            link = "" if par is None else f" ← {par}"
            parts.append(f"{name}({attrs}){link}")
        return " | ".join(parts)


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def ghd_from_partition(
    hg: Hypergraph, partition: Sequence[Sequence[str]]
) -> Optional[GHD]:
    """Build a GHD whose bags are unions of the edge groups in ``partition``.

    Returns ``None`` when the bag hypergraph is cyclic (no join tree, so
    the candidate is not a GHD under this construction).
    """
    bags: Dict[str, Tuple[str, ...]] = {}
    groups: Dict[str, List[str]] = {}
    for idx, group in enumerate(partition):
        attrs: List[str] = []
        seen = set()
        for edge_name in group:
            for a in hg.edge(edge_name):
                if a not in seen:
                    seen.add(a)
                    attrs.append(a)
        bag_name = f"B{idx}"
        bags[bag_name] = tuple(attrs)
        groups[bag_name] = list(group)
    bag_hg = Hypergraph(bags)
    parent = bag_hg.gyo_join_tree()
    if parent is None:
        return None
    return GHD(hg, bags, parent, groups)


def trivial_ghd(hg: Hypergraph) -> GHD:
    """One bag per edge — valid iff the query is acyclic."""
    ghd = ghd_from_partition(hg, [[name] for name in hg.edge_names])
    if ghd is None:
        raise PlanError(f"query {hg!r} is cyclic; the trivial GHD does not exist")
    return ghd


def _set_partitions(items: List[str]) -> Iterable[List[List[str]]]:
    """All partitions of ``items`` (restricted growth strings).

    Refuses more than :data:`MAX_ENUMERATION_EDGES` items — the partition
    count is the Bell number of ``len(items)``, which passes 4 million at
    12 items; callers needing larger queries use the branch-and-bound
    search instead of exhaustion.
    """
    n = len(items)
    if n > MAX_ENUMERATION_EDGES:
        raise QueryError(
            f"refusing to enumerate the {n}-edge partition lattice "
            f"(Bell-number blowup past {MAX_ENUMERATION_EDGES} edges); "
            "use search='exact' (branch-and-bound) instead"
        )
    if n == 0:
        yield []
        return
    codes = [0] * n

    def gen(i: int, max_code: int):
        if i == n:
            blocks: Dict[int, List[str]] = {}
            for idx, c in enumerate(codes):
                blocks.setdefault(c, []).append(items[idx])
            yield [blocks[c] for c in sorted(blocks)]
            return
        for c in range(max_code + 2):
            codes[i] = c
            yield from gen(i + 1, max(max_code, c))

    yield from gen(1, 0)


def enumerate_partition_ghds(hg: Hypergraph) -> Iterable[GHD]:
    """All partition-derived GHDs of a (constant-size) query.

    Raises :class:`QueryError` *eagerly* (not on first iteration) when
    the query exceeds :data:`MAX_ENUMERATION_EDGES` edges.
    """
    if len(hg.edge_names) > MAX_ENUMERATION_EDGES:
        raise QueryError(
            f"refusing to enumerate partition GHDs of a "
            f"{len(hg.edge_names)}-edge query (Bell-number blowup past "
            f"{MAX_ENUMERATION_EDGES} edges); use search='exact' "
            "(branch-and-bound) instead"
        )

    def _iter() -> Iterable[GHD]:
        for partition in _set_partitions(list(hg.edge_names)):
            ghd = ghd_from_partition(hg, partition)
            if ghd is not None:
                yield ghd

    return _iter()


def _ghd_rank(ghd: GHD) -> Tuple[float, int, int, int]:
    """Ranking key for tie-breaking among equal-width GHDs.

    Smaller width first; then smaller maximum bag arity (cheaper bag
    materialization), then smaller total arity (no redundant bags), then
    more bags — yielding the balanced decompositions Table 1 lists (e.g.
    (x1x2x3)-(x3x4x1) for Q_C4 rather than a 4-attribute bag, and a
    single bag for the triangle rather than one with a redundant copy).
    """
    arities = [len(lam) for lam in ghd.bags.values()]
    return (ghd.width(), max(arities), sum(arities), -len(arities))


def fhtw_ghd(hg: Hypergraph, search: str = "exact") -> Tuple[float, GHD]:
    """Minimum-width partition GHD — the fhtw decomposition.

    Ties prefer fewer bags (cheaper sweeps) then the trivial GHD; the
    branch-and-bound default reproduces the exhaustive enumeration's
    winner exactly (see :mod:`repro.nontemporal.search`). Completed
    results are memoized per hypergraph structure; treat the returned
    GHD as read-only.
    """
    from .search import min_width_ghd

    result = min_width_ghd(hg, hierarchical=False, search=search)
    return result.width, result.ghd


def hhtw_ghd(hg: Hypergraph, search: str = "exact") -> Tuple[float, GHD]:
    """Minimum-width *hierarchical* partition GHD (Definition 11).

    A single-bag decomposition is trivially hierarchical, so this always
    exists; its width is then ρ(Q).
    """
    from .search import min_width_ghd

    result = min_width_ghd(hg, hierarchical=True, search=search)
    return result.width, result.ghd


def fhtw(hg: Hypergraph, search: str = "exact") -> float:
    """Fractional hypertree width (over partition GHDs)."""
    return fhtw_ghd(hg, search=search)[0]


def hhtw(hg: Hypergraph, search: str = "exact") -> float:
    """Hierarchical hypertree width (over partition GHDs)."""
    return hhtw_ghd(hg, search=search)[0]


# ----------------------------------------------------------------------
# Guarded partitions (Definition 13 / Algorithm 6)
# ----------------------------------------------------------------------
@dataclass
class GuardedPartition:
    """An attribute partition ``(I, J)`` driving HybridGuarded.

    ``J`` is the attribute set shared by all bags (the "core"); ``I`` the
    rest. ``residual_product`` is true when the residual query ``Q_I``
    splits into pairwise attribute-disjoint edge groups — the situation
    where the interval-join shortcut of §4.2 applies (with exactly two
    groups).
    """

    I: Tuple[str, ...]
    J: Tuple[str, ...]
    core_edges: Tuple[str, ...]  # edges fully inside J
    residual_edges: Tuple[str, ...]  # edges intersecting I
    residual_product: bool

    @property
    def residual_group_count(self) -> int:
        return len(self.residual_edges) if self.residual_product else 1


def is_guarded(ghd: GHD) -> bool:
    """Definition 13, literally: is this GHD guarded?

    A GHD is guarded when its nodes are in one-to-one correspondence with
    ``{e ∪ J : e ∈ E_I}`` for ``J = ∩_u λ_u`` and ``I = V − J`` (``E_I``
    the edges meeting ``I``). Used by tests to tie
    :func:`find_guarded_partition` back to the paper's definition: the
    GHD induced by a found partition is guarded in this exact sense.
    """
    hg = ghd.query
    lam_sets = [frozenset(lam) for lam in ghd.bags.values()]
    j_set = frozenset.intersection(*lam_sets) if lam_sets else frozenset()
    i_set = frozenset(hg.attrs) - j_set
    expected = {
        frozenset(hg.edge(name)) | j_set
        for name in hg.edge_names
        if set(hg.edge(name)) & i_set
    }
    return set(lam_sets) == expected and len(lam_sets) == len(expected)


def guarded_ghd(hg: Hypergraph) -> Optional[GHD]:
    """The GHD induced by the guarded partition, when one exists.

    Nodes are ``e ∪ J`` for every residual edge ``e``, arranged in a star
    (any tree over nodes sharing ``J`` satisfies running intersection
    when every ``I``-attribute is private to one edge, which
    :func:`find_guarded_partition` guarantees).
    """
    gp = find_guarded_partition(hg)
    if gp is None:
        return None
    j = tuple(gp.J)
    bags: Dict[str, Tuple[str, ...]] = {}
    groups: Dict[str, List[str]] = {}
    parent: Dict[str, Optional[str]] = {}
    first: Optional[str] = None
    for idx, name in enumerate(gp.residual_edges):
        bag = f"B{idx}"
        extra = tuple(a for a in hg.edge(name) if a not in set(j))
        bags[bag] = j + extra
        groups[bag] = [name]
        parent[bag] = None if first is None else first
        if first is None:
            first = bag
    # Core edges (⊆ J) live in every bag; home them at the first bag.
    if first is not None and gp.core_edges:
        groups[first] = groups[first] + list(gp.core_edges)
    ghd = GHD(hg, bags, parent, groups)
    if not ghd.is_valid():  # pragma: no cover - guarded partitions are valid
        raise PlanError(f"guarded construction produced an invalid GHD for {hg!r}")
    return ghd


def find_guarded_partition(hg: Hypergraph) -> Optional[GuardedPartition]:
    """Find the paper's guarded partition, if one exists.

    We take ``I`` = attributes private to a single edge and ``J`` = the
    rest, then require that the induced residual edges are pairwise
    disjoint on ``I`` (each residual edge touches its own private
    attributes only). This matches Table 1's (I, J) columns for the line
    joins and generalizes to stars; queries without private attributes
    (cycles) have no guarded partition.
    """
    private = [a for a in hg.attrs if len(hg.edges_of(a)) == 1]
    if not private:
        return None
    i_set = set(private)
    j_attrs = tuple(a for a in hg.attrs if a not in i_set)
    if not j_attrs:
        # Everything private: the query is a Cartesian product of edges;
        # HybridGuarded degenerates to TIMEFIRST. Not guarded per Def. 13.
        return None
    core = tuple(
        name
        for name in hg.edge_names
        if not (set(hg.edge(name)) & i_set)
    )
    residual = tuple(
        name for name in hg.edge_names if set(hg.edge(name)) & i_set
    )
    if not residual:
        return None
    # Residual restrictions pairwise disjoint on I?
    restrictions = [set(hg.edge(name)) & i_set for name in residual]
    product = True
    for x, y in itertools.combinations(restrictions, 2):
        if x & y:
            product = False
            break
    return GuardedPartition(
        I=tuple(sorted(i_set, key=hg.attrs.index)),
        J=j_attrs,
        core_edges=core,
        residual_edges=residual,
        residual_product=product,
    )
