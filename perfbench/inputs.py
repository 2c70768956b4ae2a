"""Seeded inputs and independent reference answers for every workload.

Everything here runs before timing starts and is excluded from
``setup_s``: instance generation and the reference answers each
operation is checked against. References always come from a route the
measured operation does not take — the object engine for operations the
planner sends to the kernel, kernel TIMEFIRST for operations it sends to
an object algorithm, offline ``temporal_join`` for served snapshots and
the serial join for sharded ones — so a bug in the measured route cannot
also hide in its reference.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Dict, List

from repro import (
    Interval,
    JoinQuery,
    TemporalRelation,
    plan,
    self_join_database,
    temporal_join,
)
from repro.workloads import ldbc, tpce
from repro.workloads.synthetic import SyntheticConfig, generate

#: Figure-8 synthetic instances: (label, query, n_dangling, taus). The
#: dangling mass is sized so the star joins hold about 10k tuples and the
#: routed line/cycle joins about 1.3k; n_results backbone tuples are the
#: only results, so every output has at most ``FIG8_RESULTS`` rows.
FIG8_RESULTS = 60
FIG8_INSTANCES = (
    ("QS4", JoinQuery.star(4), 2500, (0, 100, 400)),
    ("QS3", JoinQuery.star(3), 3300, (0, 100, 400)),
    ("QL4", JoinQuery.line(4), 300, (0,)),
    ("QC4", JoinQuery.cycle(4), 300, (0,)),
)
#: The binary Allen-predicate query: R1 equals R2 on the line-2 instance,
#: whose only equal pairs are the backbone results.
ALLEN_QUERY = ("QL2-equals", JoinQuery.line(2), 5000, "equals")

#: Figure-9 databases at a reduced scale (see README.md): TPC-E holdings
#: star self-join at tau=170 and the LDBC knows chain at tau=11, each
#: with the 3-query / 2-template fleet of ``repro.bench.service``. Their
#: shape comes from the fixed generator seeds of that module; the run
#: seed draws labels, row order and time origin (:func:`relabelled`),
#: because at this scale the output size, and with it every latency,
#: moves by 10-20% from one generator seed to the next.
TPCE_HOLDINGS = 600
TPCE_SEED = 170
LDBC_N = 400
LDBC_SEED = 11


def fingerprint(rows) -> Counter:
    """Multiset of ``(values, lo, hi)`` rows: order-free result identity."""
    return Counter((values, iv.lo, iv.hi) for values, iv in rows)


def input_size(database) -> int:
    return sum(len(rel) for rel in database.values())


def relabelled(relation, seed: int, shared_domain: bool):
    """``relation`` with seed-drawn value labels, row order and time origin.

    Values are permuted within their domain (one domain for all
    attributes when ``shared_domain``, else one per attribute) and every
    interval is shifted by the same amount, so the instance, its joins
    and their output sizes are isomorphic to the original.
    """
    rng = random.Random(seed)
    columns = list(zip(*(values for values, _ in relation)))
    groups = [tuple(range(len(columns)))] if shared_domain else [
        (i,) for i in range(len(columns))
    ]
    mapping = [None] * len(columns)
    for group in groups:
        names = sorted({v for i in group for v in columns[i]}, key=str)
        drawn = names[:]
        rng.shuffle(drawn)
        table = dict(zip(names, drawn))
        for i in group:
            mapping[i] = table
    shift = rng.randrange(1000)
    rows = [
        (
            tuple(table[v] for table, v in zip(mapping, values)),
            Interval(iv.lo + shift, iv.hi + shift),
        )
        for values, iv in relation
    ]
    rng.shuffle(rows)
    return TemporalRelation(relation.name, relation.attrs, rows)


@dataclass
class Template:
    """One repeated read: a query, its database and a reference answer."""

    name: str
    query: JoinQuery
    database: Dict
    tau: float = 0
    predicate: str = "overlaps"
    route: str = ""
    reference: Counter = field(default_factory=Counter, repr=False)

    @property
    def tuples(self) -> int:
        return input_size(self.database)

    def run(self, **kwargs):
        return temporal_join(
            self.query, self.database, self.tau,
            predicate=self.predicate, **kwargs,
        )


def _route(template: Template) -> str:
    """``algorithm/engine`` the planner picks for a template."""
    if template.predicate != "overlaps":
        return "lazy-sweep/kernel"
    choice = plan(template.query)
    return f"{choice.algorithm}/{choice.engine}"


def _with_reference(template: Template) -> Template:
    """Attach the route decision and the independent-route reference."""
    template.route = _route(template)
    if template.route.endswith("/kernel"):
        reference = template.run(engine="object")
    else:
        reference = template.run(algorithm="timefirst", engine="kernel")
    template.reference = fingerprint(reference)
    return template


def fig8_templates(seed: int):
    """The Figure-8 rotation: six star reads twice, the Allen read, two routed reads."""
    templates: List[Template] = []
    configs = {}
    for k, (label, query, n_dangling, taus) in enumerate(FIG8_INSTANCES):
        config = SyntheticConfig(
            n_dangling=n_dangling, n_results=FIG8_RESULTS, seed=seed * 100 + k
        )
        database = generate(query, config)
        configs[label] = dict(asdict(config), tuples=input_size(database))
        for tau in taus:
            templates.append(Template(f"{label}/tau={tau}", query, database, tau))
    label, query, n_dangling, predicate = ALLEN_QUERY
    config = SyntheticConfig(
        n_dangling=n_dangling, n_results=FIG8_RESULTS, seed=seed * 100 + 99
    )
    database = generate(query, config)
    configs[label] = dict(asdict(config), tuples=input_size(database))
    # Fifteen operations in a fixed order: the median falls in the middle
    # of the star reads and the 90th percentile in the middle of the
    # cycle's band, not on the edge between two kinds of operation.
    routed = [t for t in templates if not t.name.startswith("QS")]
    stars = [t for t in templates if t.name.startswith("QS")]
    allen = Template(label, query, database, 0, predicate)
    for t in stars + [allen] + routed:
        _with_reference(t)
    return stars + stars + [allen] + routed, configs


@dataclass
class Case:
    """One Figure-9 database with its standing-query fleet."""

    name: str
    database: Dict
    fleet: List  # (name, query) pairs, all at ``tau``
    tau: float
    references: List[Counter] = field(default_factory=list, repr=False)

    @property
    def queries(self) -> List[JoinQuery]:
        return [query for _, query in self.fleet]

    @property
    def tuples(self) -> int:
        return input_size(self.database)

    def sub_database(self, query: JoinQuery) -> Dict:
        return {name: self.database[name] for name in query.edge_names}


def tpce_case(seed: int):
    """TPC-E holdings star self-join at tau=170 with its fleet."""
    n = TPCE_HOLDINGS
    config = tpce.TPCEConfig(
        n_customers=max(40, n // 6), n_securities=max(12, n // 40),
        hot_securities=max(3, n // 200), n_holdings=n, seed=TPCE_SEED,
    )
    holdings = relabelled(tpce.generate_holdings(config), seed, shared_domain=False)
    case = Case(
        "tpce-star-tau170",
        tpce.star_database(holdings, 3),
        [
            ("star3", tpce.star_query(3)),
            ("star2", tpce.star_query(2)),
            ("star3-dup", tpce.star_query(3)),
        ],
        170,
    )
    return case, dict(asdict(config), tuples=case.tuples, relabel_seed=seed)


def ldbc_case(seed: int):
    """LDBC knows 3-chain at tau=11 with its fleet."""
    config = ldbc.LDBCConfig(
        n_persons=max(40, LDBC_N // 5), n_knows=LDBC_N // 2, seed=LDBC_SEED
    )
    knows = relabelled(ldbc.knows_relation(config), seed, shared_domain=True)
    line3 = JoinQuery.line(3)
    case = Case(
        "ldbc-line-tau11",
        self_join_database(line3, knows),
        [
            ("line3", line3),
            ("line2", JoinQuery({"R1": ("x1", "x2"), "R2": ("x2", "x3")})),
            ("line3-dup", line3),
        ],
        11,
    )
    return case, dict(asdict(config), tuples=case.tuples, relabel_seed=seed)


def fig9_cases(seed: int):
    """Both Figure-9 cases, each query with its independent-route answer."""
    cases, configs = [], {}
    for make in (tpce_case, ldbc_case):
        case, config = make(seed)
        answers = {}
        for name, query in case.fleet:
            key = (tuple(query.edge_names), tuple(query.attrs))
            if key not in answers:
                answers[key] = _with_reference(
                    Template(name, query, case.sub_database(query), case.tau)
                ).reference
            case.references.append(answers[key])
        cases.append(case)
        configs[case.name] = config
    return cases, configs


def sharded_templates(seed: int):
    """One Figure-8 star instance and the TPC-E star3 read, on 2 workers."""
    config = SyntheticConfig(
        n_dangling=2500, n_results=FIG8_RESULTS, seed=seed * 100 + 3
    )
    star = JoinQuery.star(4)
    case, case_config = tpce_case(seed)
    query = case.queries[0]
    templates = [
        Template("QS4/tau=0", star, generate(star, config)),
        Template("tpce-star3/tau=170", query, case.sub_database(query), case.tau),
    ]
    configs = {
        "QS4": dict(asdict(config), tuples=templates[0].tuples),
        case.name: case_config,
    }
    return [_with_reference(t) for t in templates], configs
