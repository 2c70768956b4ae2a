"""The one TIMEFIRST sweep driver, on every route that runs it.

Object TIMEFIRST, ``timefirst-cm``, HYBRID's bag sweep and the kernel
engine all sweep the shared event encoding through
:func:`repro.algorithms.timefirst.drive`, whose ``sweep.*`` counters are
derived from the event codes after the loop. The pinned counters below
were recorded from the per-event instrumented loops the driver replaced.
"""

from fractions import Fraction

import pytest

from repro.algorithms.hierarchical_cm import ComparisonHierarchicalState
from repro.algorithms.naive import naive_join
from repro.algorithms.registry import temporal_join
from repro.algorithms.timefirst import timefirst_join
from repro.core.query import JoinQuery
from repro.core.relation import TemporalRelation
from repro.obs import ExecutionStats

INF = float("inf")


def line2_db(r1, r2):
    return {
        "R1": TemporalRelation("R1", ("x1", "x2"), r1),
        "R2": TemporalRelation("R2", ("x2", "x3"), r2),
    }


INSTANCES = {
    "touching": line2_db(
        [((1, 2), (0, 5)), ((3, 2), (5, 9)), ((4, 2), (9, 9))],
        [((2, 7), (5, 12)), ((2, 8), (0, 5)), ((2, 9), (9, 20))],
    ),
    "instant": line2_db(
        [((1, 2), (3, 3)), ((1, 3), (3, 3)), ((5, 2), (0, 3))],
        [((2, 5), (3, 3)), ((2, 6), (1, 3)), ((3, 5), (3, 8))],
    ),
    "inf": line2_db(
        [((1, 2), (-INF, 5)), ((3, 2), (2, INF)), ((1, 4), (-INF, INF))],
        [((2, 5), (-INF, INF)), ((2, 6), (5, INF)), ((4, 1), (-INF, -3))],
    ),
}

ROUTES = {
    "timefirst": dict(algorithm="timefirst", engine="object"),
    "timefirst-cm": dict(algorithm="timefirst-cm"),
    "hybrid": dict(algorithm="hybrid"),
    "kernel": dict(algorithm="timefirst", engine="kernel"),
}

#: (events, inserts, enumerate_calls, active_peak, results) per
#: (instance, tau); HYBRID differs where its bag materialization drops
#: rows before the sweep.
PINNED = {
    ("touching", 0): (12, 6, 6, 4, 7),
    ("touching", 2): (10, 5, 5, 2, 2),
    ("instant", 0): (12, 6, 6, 6, 5),
    ("instant", 2): (6, 3, 3, 2, 1),
    ("inf", 0): (12, 6, 6, 5, 5),
    ("inf", 2): (12, 6, 6, 4, 4),
}
PINNED_HYBRID = {**PINNED, ("instant", 2): (4, 2, 2, 2, 1)}

SWEEP_COUNTERS = (
    "sweep.events",
    "sweep.inserts",
    "sweep.enumerate_calls",
    "sweep.active_peak",
    "results",
)


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("tau", [0, 2])
@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_sweep_counters_pinned(instance, tau, route):
    q = JoinQuery.line(2)
    db = INSTANCES[instance]
    stats = ExecutionStats()
    got = temporal_join(q, db, tau=tau, stats=stats, **ROUTES[route])
    pinned = (PINNED_HYBRID if route == "hybrid" else PINNED)[instance, tau]
    assert tuple(stats.get(name) for name in SWEEP_COUNTERS) == pinned
    assert got.normalized() == naive_join(q, db, tau=tau).normalized()


@pytest.mark.parametrize("tau", [0, 1, Fraction(1, 2)])
def test_object_engine_mixed_endpoint_types(tau):
    # 1 and 1.0 share one rank; Fraction and ±inf endpoints order exactly.
    q = JoinQuery({"R1": ("x0", "x1"), "R2": ("x0", "x2")})
    db = {
        "R1": TemporalRelation(
            "R1", ("x0", "x1"),
            [((0, 1), (1, 4.0)), ((0, 2), (1.0, Fraction(7, 2))),
             ((1, 1), (-INF, 1)), ((1, 2), (Fraction(1, 3), INF))],
        ),
        "R2": TemporalRelation(
            "R2", ("x0", "x2"),
            [((0, 5), (Fraction(7, 2), 9)), ((0, 6), (1, 1.0)),
             ((1, 5), (1.0, INF)), ((1, 6), (-INF, INF))],
        ),
    }
    got = temporal_join(q, db, tau=tau, algorithm="timefirst", engine="object")
    assert got.normalized() == naive_join(q, db, tau=tau).normalized()


def r_hierarchical_instance():
    # Merely r-hierarchical: atoms(a) and atoms(c) overlap in Big only,
    # so the query is not hierarchical; Left and Right are absorbed into
    # Big, and the reduced query {Big} is.
    q = JoinQuery({"Big": ("a", "b", "c"), "Left": ("a", "b"), "Right": ("b", "c")})
    db = {
        "Big": TemporalRelation(
            "Big", ("a", "b", "c"),
            [((1, 1, 1), (0, 10)), ((1, 2, 1), (4, 6)), ((2, 1, 3), (0, 3)),
             ((2, 2, 2), (1, 9))],
        ),
        "Left": TemporalRelation(
            "Left", ("a", "b"), [((1, 1), (2, 8)), ((2, 1), (3, 9)), ((2, 2), (0, 4))]
        ),
        "Right": TemporalRelation(
            "Right", ("b", "c"), [((1, 1), (5, 12)), ((1, 3), (0, 2)), ((2, 2), (2, 9))]
        ),
    }
    return q, db


@pytest.mark.parametrize("tau", [0, 1])
def test_r_hierarchical_through_timefirst_cm(tau):
    q, db = r_hierarchical_instance()
    assert not q.is_hierarchical and q.is_r_hierarchical
    got = temporal_join(q, db, tau=tau, algorithm="timefirst-cm")
    assert got.normalized() == naive_join(q, db, tau=tau).normalized()


@pytest.mark.parametrize("tau", [0, 1])
def test_r_hierarchical_through_state_factory(tau):
    # The factory sees the reduced, hierarchical run query.
    q, db = r_hierarchical_instance()
    seen = []

    def factory(run_query, run_db):
        seen.append(tuple(run_query.edge_names))
        return ComparisonHierarchicalState(run_query)

    got = timefirst_join(q, db, tau=tau, state_factory=factory)
    assert seen == [("Big",)]
    assert got.normalized() == naive_join(q, db, tau=tau).normalized()
