"""Endpoint event codes for the TIMEFIRST sweep (Algorithm 1, line 1).

The sweep stops at every interval endpoint: left endpoints insert the
tuple into the dynamic structure, right endpoints enumerate the results
the tuple participates in and then delete it.

Tie-breaking is load-bearing: intervals are closed, so ``[1, 2]`` and
``[2, 3]`` *do* join. All insertions at time ``t`` must therefore be
processed before any expiration at time ``t`` — encoded by sorting on
``(time, kind)`` with ``INSERT < EXPIRE``. Among equal ``(time, kind)``
events the order is the deterministic input order, which also fixes which
of several same-endpoint tuples enumerates a shared result (exactly one
of them does: the first expiration processed sees the others still
active; later ones no longer see it).

Every TIMEFIRST route — the object engine, HYBRID's bag sweep and the
kernel engine — sweeps this one encoding. Rows get dense ids in database
order (relation by relation), endpoints are rank-compressed, and the
event of row ``row`` at endpoint rank ``rank`` is the single int
``(rank * 2 + kind) * n + row`` for ``n`` rows. Plain integer order is
then exactly the ``(time, kind, input order)`` order above.
"""

from __future__ import annotations

from array import array
from operator import attrgetter
from typing import List, Sequence

import numpy as np

from ..core.errors import InvariantError
from ..core.interval import Interval, Number

INSERT = 0
EXPIRE = 1

#: Largest value an int64 event code may take.
_INT64_MAX = (1 << 63) - 1

_lo_of = attrgetter("lo")
_hi_of = attrgetter("hi")


def _rank_endpoints(los: List[Number], his: List[Number]):
    """``(rank_times, row_lo, row_hi)`` of the rows' endpoints."""
    # Interleaved so equal endpoints of different types (``5``/``5.0``)
    # keep the first-seen representative, row by row.
    endpoints = [None] * (2 * len(los))
    endpoints[::2] = los
    endpoints[1::2] = his
    rank_times = sorted(set(endpoints))
    rank_of = {t: rank for rank, t in enumerate(rank_times)}.__getitem__
    return rank_times, array("q", map(rank_of, los)), array("q", map(rank_of, his))


def _sorted_event_codes(row_lo: array, row_hi: array) -> List[int]:
    """Encode + sort the event stream as single ints.

    ``code = (rank * 2 + kind) * n + row`` with INSERT=0 < EXPIRE=1, so
    plain integer order is the ``(time, kind, row)`` order of the module
    docstring. The codes are built and sorted as one int64 numpy array;
    every code is below ``(2 * max_rank + 2) * n``, and an input where
    that bound leaves int64 raises instead of wrapping into a wrong order.
    """
    n = len(row_lo)
    if n == 0:
        return []
    lo = np.frombuffer(row_lo, dtype=np.int64)
    hi = np.frombuffer(row_hi, dtype=np.int64)
    max_rank = max(int(lo.max()), int(hi.max()))
    if (2 * max_rank + 2) * n > _INT64_MAX:
        raise InvariantError(
            f"event codes for {n} rows with ranks up to {max_rank} "
            "overflow int64"
        )
    rows = np.arange(n, dtype=np.int64)
    codes = np.concatenate((lo * (2 * n) + rows, (hi * 2 + 1) * n + rows))
    codes.sort()
    return codes.tolist()


def event_codes(intervals: Sequence[Interval]) -> List[int]:
    """Sorted event codes of the rows whose intervals are ``intervals``.

    Row ``i`` is ``intervals[i]``. ``O(N log N)`` — the sort in
    Algorithm 1 line 1; every row yields one INSERT and one EXPIRE code.
    """
    _, row_lo, row_hi = _rank_endpoints(
        list(map(_lo_of, intervals)), list(map(_hi_of, intervals))
    )
    return _sorted_event_codes(row_lo, row_hi)
