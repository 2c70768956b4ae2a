"""CSV import/export for temporal relations and join results.

Temporal datasets in the wild (the paper's Flights and DBLP inputs
included) arrive as delimited text with two timestamp columns. This
module reads and writes that shape:

* :func:`read_relation_csv` / :func:`write_relation_csv` — a
  :class:`TemporalRelation` as ``attr1,...,attrN,<start>,<end>`` rows;
* :func:`read_database_csv` — one file per relation of a query;
* :func:`write_results_csv` — a :class:`JoinResultSet` with its valid
  intervals, ready for downstream analysis.

Values are read as strings by default; pass ``value_parser`` to coerce
(e.g. ``int``). Unbounded endpoints serialize as the literals ``-inf`` /
``inf``. Durations and timestamps are parsed as ``int`` when possible,
``float`` otherwise, so round-trips preserve the exact endpoint types
the sweep sorts on. Non-finite garbage (``nan`` and friends) and
malformed endpoints are rejected at read time with a
:class:`~repro.core.errors.SchemaError` citing ``path:lineno``.
"""

from __future__ import annotations

import csv
import math
import pathlib
from typing import Callable, Dict, Mapping, Optional, Union

from .errors import IntervalError, SchemaError
from .interval import Interval, Number
from .query import JoinQuery
from .relation import TemporalRelation
from .result import JoinResultSet

PathLike = Union[str, pathlib.Path]

START_COLUMN = "valid_from"
END_COLUMN = "valid_to"


def _parse_time(token: str) -> Number:
    """Parse one endpoint token; NaN and garbage raise ``ValueError``.

    ``±inf`` spellings are legal (unbounded endpoints); anything that
    Python would parse to NaN (``nan``, ``NaN``, ``-nan`` …) is rejected
    here so the caller can attach file/line context instead of the old
    behaviour of failing much later inside ``Interval.__post_init__``
    with no hint of where the bad row came from.
    """
    token = token.strip()
    if token in ("inf", "+inf", "Infinity"):
        return math.inf
    if token in ("-inf", "-Infinity"):
        return -math.inf
    try:
        return int(token)
    except ValueError:
        value = float(token)  # may raise ValueError: caller adds context
    if math.isnan(value):
        # Internal control flow: read_relation_csv catches ValueError and
        # re-raises SchemaError with path:lineno context, matching the
        # ValueError float() raises two lines up for garbage tokens.
        raise ValueError(  # repro-lint: disable=error-taxonomy
            f"NaN is not a valid interval endpoint: {token!r}"
        )
    return value


def _format_time(value: Number) -> str:
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return repr(value)


def write_relation_csv(relation: TemporalRelation, path: PathLike) -> None:
    """Write ``relation`` as CSV with trailing interval columns."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(relation.attrs) + [START_COLUMN, END_COLUMN])
        for values, interval in relation:
            writer.writerow(
                [str(v) for v in values]
                + [_format_time(interval.lo), _format_time(interval.hi)]
            )


def read_relation_csv(
    path: PathLike,
    name: Optional[str] = None,
    value_parser: Optional[Callable[[str], object]] = None,
    check_distinct: bool = True,
) -> TemporalRelation:
    """Read a temporal relation written by :func:`write_relation_csv`.

    The last two columns must be the interval endpoints (by the standard
    header names, or simply positionally when the header differs).
    """
    path = pathlib.Path(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path} is empty; expected a CSV header") from None
        if len(header) < 3:
            raise SchemaError(
                f"{path}: need at least one attribute plus two interval "
                f"columns, got header {header}"
            )
        attrs = tuple(h.strip() for h in header[:-2])
        rows = []
        parse = value_parser or (lambda s: s)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(
                    f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}"
                )
            values = tuple(parse(v) for v in row[:-2])
            try:
                interval = Interval(_parse_time(row[-2]), _parse_time(row[-1]))
            except (ValueError, IntervalError) as exc:
                raise SchemaError(
                    f"{path}:{lineno}: bad interval "
                    f"[{row[-2]!r}, {row[-1]!r}]: {exc}"
                ) from None
            rows.append((values, interval))
    return TemporalRelation(
        name or path.stem, attrs, rows, check_distinct=check_distinct
    )


def read_database_csv(
    query: JoinQuery,
    paths: Mapping[str, PathLike],
    value_parser: Optional[Callable[[str], object]] = None,
) -> Dict[str, TemporalRelation]:
    """Read one CSV per query relation and validate against the query."""
    db = {
        name: read_relation_csv(path, name=name, value_parser=value_parser)
        for name, path in paths.items()
    }
    query.validate(db)
    return db


def write_results_csv(results: JoinResultSet, path: PathLike) -> None:
    """Write join results with their valid intervals and durabilities."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            list(results.attrs) + [START_COLUMN, END_COLUMN, "durability"]
        )
        for values, interval in results:
            writer.writerow(
                [str(v) for v in values]
                + [
                    _format_time(interval.lo),
                    _format_time(interval.hi),
                    _format_time(interval.duration),
                ]
            )


def write_database_csv(
    database: Mapping[str, TemporalRelation], directory: PathLike
) -> Dict[str, pathlib.Path]:
    """Write every relation of a database into ``directory`` as CSVs."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    out = {}
    for name, relation in database.items():
        path = directory / f"{name}.csv"
        write_relation_csv(relation, path)
        out[name] = path
    return out
