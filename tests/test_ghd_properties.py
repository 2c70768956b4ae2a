"""Property tests for the GHD/width machinery on random hypergraphs."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.classification import is_hierarchical
from repro.core.hypergraph import Hypergraph
from repro.nontemporal.cover import rho
from repro.nontemporal.ghd import (
    enumerate_partition_ghds,
    fhtw,
    find_guarded_partition,
    hhtw,
    hhtw_ghd,
)

ATTRS = ["a", "b", "c", "d", "e"]


@st.composite
def hypergraphs(draw, max_edges=4):
    """Random connected-ish hypergraphs over a 5-attribute universe."""
    n_edges = draw(st.integers(min_value=1, max_value=max_edges))
    edges = {}
    for i in range(n_edges):
        size = draw(st.integers(min_value=1, max_value=3))
        attrs = draw(
            st.lists(st.sampled_from(ATTRS), min_size=size, max_size=size,
                     unique=True)
        )
        edges[f"R{i}"] = tuple(attrs)
    return Hypergraph(edges)


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_every_partition_ghd_is_valid(hg):
    for ghd in enumerate_partition_ghds(hg):
        assert ghd.is_valid()


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_fhtw_at_most_hhtw(hg):
    assert fhtw(hg) <= hhtw(hg) + 1e-9


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_fhtw_at_most_rho(hg):
    # The single-bag GHD has width ρ(Q), so fhtw ≤ ρ.
    assert fhtw(hg) <= rho(hg) + 1e-9


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_widths_at_least_one(hg):
    assert fhtw(hg) >= 1.0 - 1e-9
    assert hhtw(hg) >= 1.0 - 1e-9


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_acyclic_iff_fhtw_one_on_reduced(hg):
    # For reduced hypergraphs (no edge contained in another), acyclic
    # queries have fhtw exactly 1 via the trivial GHD; cyclic queries
    # need width > 1 in the partition search.
    reduced, _ = hg.reduce()
    if reduced.is_acyclic():
        assert fhtw(reduced) == 1.0


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_hierarchical_queries_have_hhtw_one(hg):
    if is_hierarchical(hg):
        assert hhtw(hg) == 1.0
        _, ghd = hhtw_ghd(hg)
        assert ghd.is_hierarchical()


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_hhtw_ghd_always_hierarchical(hg):
    _, ghd = hhtw_ghd(hg)
    assert ghd.is_hierarchical()
    assert ghd.is_valid()


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_guarded_partition_structure(hg):
    gp = find_guarded_partition(hg)
    if gp is None:
        return
    i_set = set(gp.I)
    j_set = set(gp.J)
    # (I, J) partitions the attributes.
    assert i_set | j_set == set(hg.attrs)
    assert not (i_set & j_set)
    # Core edges avoid I entirely; residual edges touch it.
    for name in gp.core_edges:
        assert not (set(hg.edge(name)) & i_set)
    for name in gp.residual_edges:
        assert set(hg.edge(name)) & i_set
    # Every I attribute is private to one edge.
    for attr in gp.I:
        assert len(hg.edges_of(attr)) == 1
    # Product flag is consistent with pairwise disjointness on I.
    restrictions = [set(hg.edge(n)) & i_set for n in gp.residual_edges]
    disjoint = all(
        not (restrictions[i] & restrictions[j])
        for i in range(len(restrictions))
        for j in range(i + 1, len(restrictions))
    )
    assert gp.residual_product == disjoint
