"""Optimality oracle, metamorphic and budget-degradation tests for the
exact minimum-width decomposition search (``repro.nontemporal.search``).

The oracle cross-checks the branch-and-bound against the exhaustive
partition enumeration on hypothesis-generated hypergraphs: the widths
must agree exactly *and* the returned GHD must be the identical
partition (the search promises enumeration's tie-breaks, which the
Figure-6/Table-1 shape pins ride on). The metamorphic suite pins the
renaming invariance of the persistent cache key, and the budget tests
pin the graceful-degradation contract: an exhausted budget yields a
valid best-found plan flagged ``optimal=False``, never an error.
"""

import pytest

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.plans import verify_ghd
from repro.core.errors import QueryError
from repro.core.hypergraph import Hypergraph
from repro.core.planner import _CACHES, plan
from repro.core.plancache import PlanCache, cache_key
from repro.core.query import JoinQuery
from repro.nontemporal.ghd import (
    MAX_ENUMERATION_EDGES,
    enumerate_partition_ghds,
    fhtw,
    fhtw_ghd,
    hhtw,
    hhtw_ghd,
)
from repro.nontemporal.search import (
    SEARCH_MODES,
    clear_search_memo,
    exact_ghd_search,
    greedy_ghd,
    min_width_ghd,
)
from repro.obs import ExecutionStats

ATTRS = ["a", "b", "c", "d", "e", "f"]


@pytest.fixture(autouse=True)
def fresh_search_state():
    """Every test starts memo-cold so node counters are deterministic."""
    clear_search_memo()
    _CACHES.clear()
    yield
    clear_search_memo()
    _CACHES.clear()


@st.composite
def hypergraphs(draw, max_edges=6):
    """Random hypergraphs with at most 6 edges over a 6-attr universe."""
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


def partition_of(ghd):
    """A GHD's home-group partition as a comparable set of edge sets."""
    return frozenset(frozenset(g) for g in ghd.groups.values())


# ----------------------------------------------------------------------
# Optimality oracle: exact == enumeration, witness re-verified
# ----------------------------------------------------------------------
class TestOptimalityOracle:
    @settings(max_examples=50, deadline=None)
    @given(hypergraphs())
    def test_exact_matches_enumeration_width(self, hg):
        clear_search_memo()
        exact = min_width_ghd(hg, hierarchical=False, search="exact")
        brute = min_width_ghd(hg, hierarchical=False, search="enumerate")
        assert exact.optimal
        assert exact.width == brute.width
        verify_ghd(exact.ghd)

    @settings(max_examples=50, deadline=None)
    @given(hypergraphs())
    def test_exact_matches_enumeration_hierarchical(self, hg):
        clear_search_memo()
        exact = min_width_ghd(hg, hierarchical=True, search="exact")
        brute = min_width_ghd(hg, hierarchical=True, search="enumerate")
        assert exact.optimal
        assert exact.width == brute.width
        assert exact.ghd.is_hierarchical()
        verify_ghd(exact.ghd)

    @settings(max_examples=50, deadline=None)
    @given(hypergraphs())
    def test_exact_returns_the_identical_partition(self, hg):
        # Stronger than width equality: the search promises the very
        # same winner (enumeration order + tie-breaks preserved), which
        # is what keeps the Figure-6/Table-1 GHD shape pins stable.
        clear_search_memo()
        exact = min_width_ghd(hg, hierarchical=False, search="exact")
        brute = min_width_ghd(hg, hierarchical=False, search="enumerate")
        assert partition_of(exact.ghd) == partition_of(brute.ghd)

    @settings(max_examples=50, deadline=None)
    @given(hypergraphs())
    def test_width_functions_agree_across_engines(self, hg):
        clear_search_memo()
        assert fhtw(hg, search="exact") == fhtw(hg, search="enumerate")
        assert hhtw(hg, search="exact") == hhtw(hg, search="enumerate")

    @settings(max_examples=50, deadline=None)
    @given(hypergraphs())
    def test_greedy_is_a_sound_upper_bound(self, hg):
        clear_search_memo()
        greedy = min_width_ghd(hg, hierarchical=False, search="greedy")
        exact = min_width_ghd(hg, hierarchical=False, search="exact")
        assert not greedy.optimal
        assert greedy.width >= exact.width
        verify_ghd(greedy.ghd)

    def test_named_families_pin_widths(self):
        # The Table 1 anchor shapes, both engines, exact equality.
        for query in [
            JoinQuery.line(3),
            JoinQuery.star(3),
            JoinQuery.triangle(),
            JoinQuery.cycle(4),
            JoinQuery.bowtie(),
            JoinQuery.hier(),
        ]:
            hg = query.hypergraph
            clear_search_memo()
            fw, fg = fhtw_ghd(hg, search="exact")
            hw, hgh = hhtw_ghd(hg, search="exact")
            assert fw == fhtw(hg, search="enumerate")
            assert hw == hhtw(hg, search="enumerate")
            verify_ghd(fg)
            verify_ghd(hgh)
            assert hgh.is_hierarchical()


# ----------------------------------------------------------------------
# Search-engine mechanics: modes, memo, counters
# ----------------------------------------------------------------------
class TestSearchMechanics:
    def test_unknown_mode_is_a_query_error(self):
        hg = JoinQuery.triangle().hypergraph
        with pytest.raises(QueryError, match="unknown search mode"):
            min_width_ghd(hg, search="annealing")
        assert set(SEARCH_MODES) == {"exact", "greedy", "enumerate"}

    def test_cold_search_expands_nodes_memo_hit_reports_zero(self):
        hg = JoinQuery.cycle(4).hypergraph
        cold = min_width_ghd(hg, hierarchical=False, search="exact")
        assert cold.nodes > 0
        warm = min_width_ghd(hg, hierarchical=False, search="exact")
        assert warm.nodes == 0
        assert warm.lb_prunes == 0
        assert warm.width == cold.width
        assert warm.optimal

    def test_lower_bound_actually_prunes(self):
        # cycle(4) is small enough to check by hand: the branch-and-
        # bound must visit strictly fewer leaves than Bell(4) = 15
        # partitions while still matching enumeration's answer.
        hg = JoinQuery.cycle(4).hypergraph
        res = exact_ghd_search(hg)
        assert res.optimal
        assert res.lb_prunes > 0
        assert res.width == min_width_ghd(hg, search="enumerate").width

    def test_greedy_ghd_is_valid_and_hierarchical_on_request(self):
        hg = JoinQuery.bowtie().hypergraph
        plain = greedy_ghd(hg)
        assert plain.is_valid()
        hier = greedy_ghd(hg, hierarchical=True)
        assert hier.is_valid()
        assert hier.is_hierarchical()


# ----------------------------------------------------------------------
# Enumeration guard: Bell-number blowup refused, search still works
# ----------------------------------------------------------------------
class TestEnumerationGuard:
    def test_enumerate_refuses_large_queries_eagerly(self):
        hg = JoinQuery.cycle(MAX_ENUMERATION_EDGES + 4).hypergraph
        with pytest.raises(QueryError, match="Bell-number"):
            enumerate_partition_ghds(hg)
        with pytest.raises(QueryError, match="Bell-number"):
            min_width_ghd(hg, search="enumerate")

    def test_twelve_edge_cycle_exact_search_under_budget(self):
        # The regression the guard exists for: cycle(12) has ~4.2M set
        # partitions and used to hang the enumerator. The budgeted
        # branch-and-bound must return a *valid* decomposition promptly
        # instead (possibly without an optimality proof).
        hg = JoinQuery.cycle(12).hypergraph
        res = min_width_ghd(
            hg, hierarchical=False, search="exact", budget=5000
        )
        assert res.ghd.is_valid()
        verify_ghd(res.ghd)
        assert res.width >= 1.0
        assert res.nodes <= 5000
        if not res.optimal:
            assert res.reason is not None

    def test_twelve_edge_cycle_time_budget(self):
        hg = JoinQuery.cycle(12).hypergraph
        res = exact_ghd_search(hg, time_budget=0.5)
        assert res.ghd.is_valid()
        verify_ghd(res.ghd)


# ----------------------------------------------------------------------
# Metamorphic suite: renamings and permutations hit the same plan
# ----------------------------------------------------------------------
class TestMetamorphic:
    def _renamed(self, query, prefix="S"):
        """The same shape under fresh relation names."""
        return JoinQuery(
            {
                f"{prefix}{i}": query.edge(name)
                for i, name in enumerate(query.edge_names)
            }
        )

    def _permuted(self, query):
        """The same query with the output attribute order reversed."""
        return JoinQuery(
            {name: query.edge(name) for name in query.edge_names},
            attr_order=tuple(reversed(query.attrs)),
        )

    @pytest.mark.parametrize(
        "family",
        [JoinQuery.triangle, lambda: JoinQuery.cycle(4), JoinQuery.bowtie,
         JoinQuery.hier],
        ids=["triangle", "cycle4", "bowtie", "hier"],
    )
    def test_renaming_preserves_widths_and_cache_key(self, family):
        query = family()
        other = self._renamed(query)
        base = plan(query)
        twin = plan(other)
        assert twin.fhtw == base.fhtw
        assert twin.hhtw == base.hhtw
        assert twin.exponent == base.exponent
        assert twin.query_class == base.query_class
        assert cache_key(other.hypergraph) == cache_key(query.hypergraph)

    def test_attr_permutation_preserves_widths_and_cache_key(self):
        query = JoinQuery.cycle(4)
        other = self._permuted(query)
        base = plan(query)
        twin = plan(other)
        assert twin.fhtw == base.fhtw
        assert twin.hhtw == base.hhtw
        assert cache_key(other.hypergraph) == cache_key(query.hypergraph)

    def test_renamed_query_hits_the_persistent_cache(self, tmp_path):
        # The whole point of the renaming-invariant key: a renamed twin
        # planned in the same cache performs zero search work.
        cache = PlanCache(str(tmp_path / "plans"))
        query = JoinQuery.cycle(4)
        cold = ExecutionStats()
        plan(query, cache=cache, stats=cold)
        assert cold.get("planner.cache_misses") == 1
        assert cold.get("planner.cache_hits") == 0

        clear_search_memo()
        warm = ExecutionStats()
        plan(self._renamed(query), cache=cache, stats=warm)
        assert warm.get("planner.cache_hits") == 1
        assert warm.get("planner.cache_misses") == 0
        assert warm.get("planner.search_nodes") == 0


# ----------------------------------------------------------------------
# Budget degradation: best-found plan, flagged, never an error
# ----------------------------------------------------------------------
class TestBudgetDegradation:
    def test_budget_one_degrades_to_greedy_plan(self):
        query = JoinQuery.cycle(4)
        stats = ExecutionStats()
        degraded = plan(query, budget=1, stats=stats)
        assert degraded.optimal is False
        assert degraded.fhtw_witness.is_valid()
        assert degraded.hhtw_witness.is_valid()
        assert degraded.hhtw_witness.is_hierarchical()
        assert "planner.budget_exhausted" in stats.notes
        assert "node budget" in stats.notes["planner.budget_exhausted"]
        assert any("best-found upper bounds" in n for n in degraded.notes)

    def test_degraded_widths_are_upper_bounds(self):
        query = JoinQuery.cycle(4)
        degraded = plan(query, budget=1)
        clear_search_memo()
        full = plan(query)
        assert full.optimal
        assert degraded.fhtw >= full.fhtw
        assert degraded.hhtw >= full.hhtw

    def test_explain_surfaces_the_degradation(self):
        degraded = plan(JoinQuery.cycle(4), budget=1)
        text = degraded.explain()
        assert "optimal    : no" in text
        assert "best-found upper bounds" in text
        full = plan(JoinQuery.triangle())
        assert "optimal    : no" not in full.explain()

    def test_budget_truncated_results_are_not_memoized(self):
        # A later unbudgeted call must still be able to prove optimality.
        hg = JoinQuery.cycle(4).hypergraph
        truncated = min_width_ghd(hg, search="exact", budget=1)
        assert not truncated.optimal
        retried = min_width_ghd(hg, search="exact")
        assert retried.optimal
        assert retried.nodes > 0

    def test_env_budget_is_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLANNER_BUDGET", "soon")
        with pytest.raises(QueryError, match="REPRO_PLANNER_BUDGET"):
            plan(JoinQuery.triangle())

    def test_env_budget_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLANNER_BUDGET", "1")
        degraded = plan(JoinQuery.cycle(4))
        assert degraded.optimal is False


# ----------------------------------------------------------------------
# Planner counters land in stats
# ----------------------------------------------------------------------
class TestPlannerCounters:
    def test_cold_plan_records_search_work(self):
        stats = ExecutionStats()
        plan(JoinQuery.cycle(4), stats=stats)
        assert stats.get("planner.search_nodes") > 0
        assert stats.get("planner.lb_prunes") > 0
        assert "phase.planner.search" in stats.timers

    def test_memo_warm_plan_records_zero_nodes(self):
        plan(JoinQuery.cycle(4))
        stats = ExecutionStats()
        plan(JoinQuery.cycle(4), stats=stats)
        assert stats.get("planner.search_nodes") == 0
        assert stats.get("planner.lb_prunes") == 0

    def test_cache_counters_only_emitted_when_cache_configured(self):
        stats = ExecutionStats()
        plan(JoinQuery.cycle(4), stats=stats)
        assert "planner.cache_hits" not in stats
        assert "planner.cache_misses" not in stats
