"""Hypothesis: ``KernelColumns.subset`` round-trips exactly.

Satellite property suite for the shard/restriction substrate: for
randomly drawn databases — duplicate endpoints, zero-length and ±inf
intervals included — any strictly-increasing row-id subset must

* preserve interval identity (``intervals()`` of the subset equals the
  parent's intervals at those rows, value for value),
* de-intern identically to the parent (shared ``domains`` tables),
* keep its derived event-code stream sorted, complete (two events per
  row) and equal in ``(time, kind, seq)`` order to a cold re-sort —
  the no-resort derivation must be indistinguishable from sorting;
* match, field for field and type for type, the per-row loop
  derivation that the numpy slicer replaced (kept here as reference).
"""

from array import array

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.errors import InvariantError  # noqa: E402
from repro.core.interval import Interval  # noqa: E402
from repro.core.relation import TemporalRelation  # noqa: E402
from repro.kernels.columns import build_columns  # noqa: E402

_INF = float("inf")

_lo = st.one_of(st.integers(min_value=-4, max_value=6), st.just(-_INF))
_dur = st.one_of(st.integers(min_value=0, max_value=5), st.just(_INF))


@st.composite
def _columns_and_subset(draw):
    """A two-relation database's columns plus a random row-id subset."""
    database = {}
    for name, attrs in (("R1", ("x", "y")), ("R2", ("y", "z"))):
        raw = draw(
            st.lists(
                st.tuples(
                    st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    _lo,
                    _dur,
                ),
                min_size=0,
                max_size=6,
            )
        )
        rows, seen = [], set()
        for values, lo, dur in raw:
            if values in seen:
                continue
            seen.add(values)
            hi = _INF if dur == _INF else (dur if lo == -_INF else lo + dur)
            rows.append((values, Interval(lo, hi)))
        database[name] = TemporalRelation(name, attrs, rows)
    columns = build_columns(database)
    mask = draw(
        st.lists(st.booleans(), min_size=columns.n_rows, max_size=columns.n_rows)
    )
    row_ids = [rid for rid, keep in zip(range(columns.n_rows), mask) if keep]
    return columns, row_ids


def _decode(columns):
    """Event stream as ``(time, kind, relation, deinterned values)``.

    The comparable form of a stream across different rank/row-id spaces:
    what the sweep observes, minus the representation.
    """
    n = columns.n_rows
    out = []
    for code in columns.event_codes:
        rid = code % n
        rank_kind = code // n
        values = tuple(
            columns.domains[a][v]
            for a, v in zip(
                _attrs_of(columns, rid), columns.row_values[rid]
            )
        )
        out.append(
            (
                columns.rank_times[rank_kind >> 1],
                rank_kind & 1,
                columns.row_relation[rid],
                values,
            )
        )
    return out


_ATTRS = {"R1": ("x", "y"), "R2": ("y", "z")}


def _attrs_of(columns, rid):
    return _ATTRS[columns.row_relation[rid]]


@settings(max_examples=80, deadline=None)
@given(drawn=_columns_and_subset())
def test_subset_round_trips(drawn):
    columns, row_ids = drawn
    sub = columns.subset(row_ids)

    # Row payloads: intervals and de-interned values are the parent's,
    # in the parent's order.
    parent_intervals = columns.intervals()
    assert sub.intervals() == [parent_intervals[r] for r in row_ids]
    assert sub.row_values == [columns.row_values[r] for r in row_ids]
    assert sub.row_relation == [columns.row_relation[r] for r in row_ids]
    assert sub.domains is columns.domains  # de-intern identically

    # Rank space stays order-preserving and exact.
    for local in range(sub.n_rows):
        iv = sub.intervals()[local]
        assert sub.rank_times[sub.row_lo[local]] == iv.lo
        assert sub.rank_times[sub.row_hi[local]] == iv.hi
    assert sub.rank_times == sorted(sub.rank_times)

    # The derived (no-resort) event stream: sorted, complete, and
    # identical to what a cold sort of the same rows would produce.
    assert sub.event_codes == sorted(sub.event_codes)
    assert len(sub.event_codes) == 2 * sub.n_rows
    from repro.kernels.columns import _sorted_event_codes

    assert sub.event_codes == _sorted_event_codes(sub.row_lo, sub.row_hi)


@settings(max_examples=40, deadline=None)
@given(drawn=_columns_and_subset())
def test_subset_stream_semantically_equals_parent_filter(drawn):
    """Decoded to (time, kind, relation, values), the subset's stream is
    exactly the parent's stream filtered to the kept rows — same order,
    same ties."""
    columns, row_ids = drawn
    sub = columns.subset(row_ids)
    kept = set(row_ids)
    n = columns.n_rows
    want = [
        event
        for code, event in zip(columns.event_codes, _decode(columns))
        if code % n in kept
    ]
    assert _decode(sub) == want


@settings(max_examples=30, deadline=None)
@given(drawn=_columns_and_subset())
def test_identity_subset_is_equivalent(drawn):
    columns, _ = drawn
    sub = columns.subset(list(range(columns.n_rows)))
    assert sub.event_codes == columns.event_codes
    assert sub.intervals() == columns.intervals()
    assert list(sub.row_lo) == list(columns.row_lo)
    assert list(sub.row_hi) == list(columns.row_hi)


def _reference_subset(columns, row_ids):
    """The per-row loop derivation the numpy ``_subset`` replaced."""
    lo_ranks = [columns.row_lo[r] for r in row_ids]
    hi_ranks = [columns.row_hi[r] for r in row_ids]
    used = sorted(set(lo_ranks) | set(hi_ranks))
    remap = {rank: local for local, rank in enumerate(used)}
    k, n = len(row_ids), columns.n_rows
    local_of = {rid: local for local, rid in enumerate(row_ids)}
    codes = []
    for code in columns.event_codes:
        local = local_of.get(code % n)
        if local is not None:
            rank_kind = code // n
            codes.append(
                ((remap[rank_kind >> 1] << 1) | (rank_kind & 1)) * k + local
            )
    return {
        "row_values": [columns.row_values[r] for r in row_ids],
        "row_relation": [columns.row_relation[r] for r in row_ids],
        "row_lo": array("q", (remap[r] for r in lo_ranks)),
        "row_hi": array("q", (remap[r] for r in hi_ranks)),
        "rank_times": [columns.rank_times[rank] for rank in used],
        "event_codes": codes,
    }


def _assert_bit_identical(sub, want):
    for name, value in want.items():
        got = getattr(sub, name)
        assert type(got) is type(value), name
        assert got == value, name
    # Same endpoint objects, so ``1`` and ``1.0`` keep their own types.
    assert [type(t) for t in sub.rank_times] == [
        type(t) for t in want["rank_times"]
    ]
    assert all(type(c) is int for c in sub.event_codes)


@settings(max_examples=80, deadline=None)
@given(drawn=_columns_and_subset(), as_array=st.booleans())
def test_subset_bit_identical_to_loop_reference(drawn, as_array):
    """The numpy slicer reproduces the loop's codes, ranks and row order,
    for list and int64-array row ids alike."""
    columns, row_ids = drawn
    ids = np.asarray(row_ids, dtype=np.int64) if as_array else row_ids
    _assert_bit_identical(columns.subset(ids), _reference_subset(columns, row_ids))


@settings(max_examples=40, deadline=None)
@given(drawn=_columns_and_subset())
def test_restrict_bit_identical_to_loop_reference(drawn):
    columns, _ = drawn
    for keep in (("R1",), ("R2",)):
        row_ids = [
            rid for rid in range(columns.n_rows) if columns.row_relation[rid] in keep
        ]
        sub = columns.restrict(keep)
        assert sub.relations == keep
        _assert_bit_identical(sub, _reference_subset(columns, row_ids))


def test_non_increasing_row_ids_rejected():
    db = {
        "R1": TemporalRelation("R1", ("x", "y"), [((0, 0), Interval(0, 1))]),
        "R2": TemporalRelation("R2", ("y", "z"), [((0, 0), Interval(0, 1))]),
    }
    columns = build_columns(db)
    with pytest.raises(InvariantError, match="strictly increasing"):
        columns.subset([1, 0])
    with pytest.raises(InvariantError, match="strictly increasing"):
        columns.subset([0, 0])
