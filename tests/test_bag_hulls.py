"""The interval-hull prune of the one bag materializer is exact.

:class:`~repro.algorithms.generic_state.BagPlan` drops a bag row when its
carried interval and the hulls of its partial projections' keys share no
point. HYBRID (Algorithm 5) materializes its GHD bags through it and
HYBRID-INTERVAL (Algorithm 6) its core join over ``J``. The property:
every row the hulls drop is no constituent of any ``naive`` result, and
the rows they keep are the unpruned rows, in the same order and with the
same interval literals.
"""

from hypothesis import given, settings, strategies as st

from repro.algorithms.generic_state import BagPlan
from repro.algorithms.hybrid import select_hybrid_ghd
from repro.algorithms.naive import naive_join
from repro.core.durability import shrink_database
from repro.core.interval import Interval
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.nontemporal.ghd import find_guarded_partition

_INF = float("inf")
STAR_WITH_CORE = JoinQuery(
    {"R0": ("y",), "R1": ("x1", "y"), "R2": ("x2", "y"), "R3": ("x3", "y")}
)
QUERIES = [
    JoinQuery.line(3), JoinQuery.line(4), STAR_WITH_CORE,
    JoinQuery.triangle(), JoinQuery.cycle(4),
]

# Small int endpoints plus 4.0 next to 4 and +/-inf, so duplicate,
# touching, zero-length and int/float-tied endpoints are common.
_lo = st.one_of(st.integers(min_value=-2, max_value=6), st.just(4.0), st.just(-_INF))
_dur = st.one_of(st.integers(min_value=0, max_value=4), st.just(_INF))


@st.composite
def _instance(draw):
    query = draw(st.sampled_from(QUERIES))
    database = {}
    for name in query.edge_names:
        attrs = query.edge(name)
        raw = draw(
            st.lists(
                st.tuples(st.tuples(*[st.integers(0, 2) for _ in attrs]), _lo, _dur),
                max_size=7,
            )
        )
        rows = {}
        for values, lo, dur in raw:
            hi = _INF if dur == _INF else (dur if lo == -_INF else lo + dur)
            rows.setdefault(values, Interval(lo, hi))
        # Some relations store their attributes reversed: rows are read
        # by attribute name.
        if draw(st.booleans()):
            attrs = attrs[::-1]
            rows = {values[::-1]: ivl for values, ivl in rows.items()}
        database[name] = TemporalRelation(name, attrs, list(rows.items()))
    return query, database


def _plans(query, database):
    """Every BagPlan HYBRID or HYBRID-INTERVAL builds for ``query``."""
    hg = query.hypergraph
    edges = dict(hg.items())
    layouts = {name: database[name].attrs for name in edges}
    for mode in ("fhtw", "hierarchical"):
        for bag, lam in select_hybrid_ghd(hg, mode).bags.items():
            yield BagPlan(bag, lam, edges, layouts)
    partition = find_guarded_partition(hg)
    if partition is not None:
        yield BagPlan("core", partition.J, edges, layouts)


def _typed(rows):
    return [(values, repr(ivl.lo), repr(ivl.hi)) for values, ivl in rows]


@settings(max_examples=150, deadline=None)
@given(instance=_instance(), tau=st.sampled_from([0, 1, 3]))
def test_hulls_drop_only_rows_that_meet_no_result(instance, tau):
    query, database = instance
    shrunk = shrink_database(database, tau)
    results = naive_join(query, database, tau=tau)
    for plan in _plans(query, database):
        unpruned = _typed(plan.materialize(shrunk, _hulls=False))
        bag = plan.materialize(shrunk)
        kept = _typed(bag)
        # The kept rows are a subsequence of the unpruned ones, literals
        # included: the hulls never narrow a carried interval.
        rest = iter(unpruned)
        assert all(row in rest for row in kept)
        assert plan.dropped == len(unpruned) - len(kept)
        assert plan.joined >= len(unpruned)
        positions = [query.attrs.index(a) for a in bag.attrs]
        constituents = {tuple(v[p] for p in positions) for v, _ in results}
        survivors = {values for values, _, _ in kept}
        for values, _, _ in unpruned:
            if values not in survivors:
                assert values not in constituents
