"""The :class:`JoinQuery` facade and the paper's named query families.

A :class:`JoinQuery` wraps a :class:`~repro.core.hypergraph.Hypergraph`
with conveniences every algorithm needs: a fixed output attribute order,
validation of a database against the query schema, and constructors for
the query families used throughout the paper (Figure 3):

* ``line(n)``   — ``Q_Ln``: R1(x1,x2) ⋈ … ⋈ Rn(xn, x(n+1))
* ``star(n)``   — ``Q_Sn``: R1(x1,y) ⋈ … ⋈ Rn(xn,y)
* ``cycle(n)``  — ``Q_Cn``: line(n-1) closed with Rn(xn, x1)
* ``triangle()``— ``Q_Δ = Q_C3``
* ``bowtie()``  — two triangles sharing one vertex (Section 6)
* ``hier()``    — the running hierarchical example ``Q_hier`` of Figure 3.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .classification import QueryClass, classify, is_hierarchical, is_r_hierarchical
from .errors import QueryError, SchemaError
from .hypergraph import Hypergraph
from .relation import TemporalRelation

Database = Mapping[str, TemporalRelation]


class JoinQuery:
    """A multi-way (natural) join query ``Q = (V, E)``.

    Parameters
    ----------
    edges:
        Mapping relation name → attribute sequence.
    attr_order:
        Optional explicit output attribute order; defaults to first
        appearance across edges. Result tuples from every algorithm are
        laid out in this order, which makes cross-algorithm comparison a
        plain tuple equality.
    """

    def __init__(
        self,
        edges: Mapping[str, Sequence[str]],
        attr_order: Optional[Sequence[str]] = None,
    ) -> None:
        self.hypergraph = Hypergraph(edges)
        if attr_order is None:
            self.attrs: Tuple[str, ...] = self.hypergraph.attrs
        else:
            attr_order = tuple(attr_order)
            if sorted(attr_order) != sorted(self.hypergraph.attrs):
                raise QueryError(
                    f"attr_order {attr_order} must be a permutation of the "
                    f"query attributes {self.hypergraph.attrs}"
                )
            self.attrs = attr_order
        self._attr_pos: Dict[str, int] = {a: i for i, a in enumerate(self.attrs)}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def edge_names(self) -> List[str]:
        return self.hypergraph.edge_names

    def edge(self, name: str) -> Tuple[str, ...]:
        return self.hypergraph.edge(name)

    def attr_position(self, attr: str) -> int:
        """Index of ``attr`` in the output tuple layout."""
        try:
            return self._attr_pos[attr]
        except KeyError:
            raise QueryError(f"unknown attribute {attr!r}") from None

    def classify(self) -> QueryClass:
        return classify(self.hypergraph)

    @property
    def is_hierarchical(self) -> bool:
        return is_hierarchical(self.hypergraph)

    @property
    def is_r_hierarchical(self) -> bool:
        return is_r_hierarchical(self.hypergraph)

    @property
    def is_acyclic(self) -> bool:
        return self.hypergraph.is_acyclic()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = " ⋈ ".join(
            f"{n}({', '.join(a)})" for n, a in self.hypergraph.items()
        )
        return f"JoinQuery[{inner}]"

    # ------------------------------------------------------------------
    # Database validation
    # ------------------------------------------------------------------
    def validate(self, database: Database) -> None:
        """Raise :class:`SchemaError` unless ``database`` matches the query.

        Every hyperedge must be bound to a relation whose attribute *set*
        equals the edge's attribute set (order may differ; algorithms
        always address values by attribute name through positions).
        """
        for name in self.edge_names:
            if name not in database:
                raise SchemaError(f"database is missing relation {name!r}")
            rel = database[name]
            if set(rel.attrs) != set(self.edge(name)):
                raise SchemaError(
                    f"relation {name!r} has attributes {rel.attrs}, query "
                    f"expects {self.edge(name)}"
                )

    def input_size(self, database: Database) -> int:
        """The paper's ``N``: total number of input tuples."""
        return sum(len(database[name]) for name in self.edge_names)

    # ------------------------------------------------------------------
    # Named families (Figure 3)
    # ------------------------------------------------------------------
    @staticmethod
    def line(n: int) -> "JoinQuery":
        """``Q_Ln``: a path of ``n`` binary relations over ``n+1`` attributes."""
        if n < 1:
            raise QueryError("line join needs n >= 1 relations")
        return JoinQuery(
            {f"R{i}": (f"x{i}", f"x{i + 1}") for i in range(1, n + 1)}
        )

    @staticmethod
    def star(n: int, center: str = "y") -> "JoinQuery":
        """``Q_Sn``: ``n`` binary relations sharing the center attribute."""
        if n < 1:
            raise QueryError("star join needs n >= 1 relations")
        return JoinQuery({f"R{i}": (f"x{i}", center) for i in range(1, n + 1)})

    @staticmethod
    def cycle(n: int) -> "JoinQuery":
        """``Q_Cn``: a cycle of ``n`` binary relations over ``n`` attributes."""
        if n < 3:
            raise QueryError("cycle join needs n >= 3 relations")
        edges = {f"R{i}": (f"x{i}", f"x{i + 1}") for i in range(1, n)}
        edges[f"R{n}"] = (f"x{n}", "x1")
        return JoinQuery(edges)

    @staticmethod
    def triangle() -> "JoinQuery":
        """``Q_Δ`` = ``Q_C3``."""
        return JoinQuery.cycle(3)

    @staticmethod
    def bowtie() -> "JoinQuery":
        """Two triangles sharing vertex ``x1`` (the Flights query Q_bowtie)."""
        return JoinQuery(
            {
                "R1": ("x1", "x2"),
                "R2": ("x2", "x3"),
                "R3": ("x3", "x1"),
                "R4": ("x1", "x4"),
                "R5": ("x4", "x5"),
                "R6": ("x5", "x1"),
            }
        )

    @staticmethod
    def hier() -> "JoinQuery":
        """``Q_hier`` of Figure 3 — the running hierarchical example."""
        return JoinQuery(
            {
                "R1": ("A", "B"),
                "R2": ("A", "B", "D"),
                "R3": ("A", "B", "E"),
                "R4": ("A", "C", "F"),
                "R5": ("A", "C", "G"),
            }
        )

    @staticmethod
    def parse(text: str) -> "JoinQuery":
        """Parse the paper's notation: ``R1(x1, x2) ⋈ R2(x2, x3)``.

        Accepts ``⋈``, ``|x|``, or ``join`` (case-insensitive) as the join
        symbol; attribute lists are comma-separated inside parentheses.

        >>> JoinQuery.parse("R1(x1,x2) ⋈ R2(x2,x3)").edge_names
        ['R1', 'R2']
        """
        import re

        normalized = re.sub(r"\|x\||\bjoin\b", "⋈", text, flags=re.IGNORECASE)
        parts = [p.strip() for p in normalized.split("⋈") if p.strip()]
        if not parts:
            raise QueryError(f"cannot parse join query from {text!r}")
        edges: Dict[str, Tuple[str, ...]] = {}
        pattern = re.compile(r"^([A-Za-z_]\w*)\s*\(([^()]*)\)$")
        for part in parts:
            match = pattern.match(part)
            if not match:
                raise QueryError(
                    f"cannot parse relation {part!r}; expected Name(attr, ...)"
                )
            name = match.group(1)
            attrs = tuple(
                a.strip() for a in match.group(2).split(",") if a.strip()
            )
            if not attrs:
                raise QueryError(f"relation {name!r} has no attributes")
            if name in edges:
                raise QueryError(f"duplicate relation name {name!r}")
            edges[name] = attrs
        return JoinQuery(edges)

    @staticmethod
    def from_hypergraph(hg: Hypergraph) -> "JoinQuery":
        """Wrap an existing hypergraph without copying."""
        q = JoinQuery.__new__(JoinQuery)
        q.hypergraph = hg
        q.attrs = hg.attrs
        q._attr_pos = {a: i for i, a in enumerate(q.attrs)}
        return q


def self_join_database(
    query: JoinQuery, relation: TemporalRelation
) -> Dict[str, TemporalRelation]:
    """Bind every binary edge of ``query`` to a renamed copy of ``relation``.

    This is how the paper evaluates graph-pattern queries: three copies of
    the edge table with attributes renamed per hyperedge (Figure 2). The
    input relation must be binary; its first attribute maps to the edge's
    first attribute and likewise for the second.
    """
    if len(relation.attrs) != 2:
        raise SchemaError("self_join_database requires a binary edge relation")
    db: Dict[str, TemporalRelation] = {}
    for name in query.edge_names:
        eattrs = query.edge(name)
        if len(eattrs) != 2:
            raise QueryError(
                f"self-join binding needs binary edges; {name!r} has {eattrs}"
            )
        db[name] = TemporalRelation(name, eattrs, relation.rows, check_distinct=False)
    return db
