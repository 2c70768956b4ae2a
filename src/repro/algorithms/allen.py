"""Cache-efficient lazy-sweep interval joins with extended Allen predicates.

The binary interval join is the hottest kernel in BASELINE (one
forward-scan per key group, footnote 6) and in HYBRID-INTERVAL's §4.2
residual shortcut — yet historically it answered exactly one predicate,
"overlaps". This module implements the sweeping scheme of Piatov, Helmer,
Dignös & Persia (arXiv:2008.12665) generalized to the *extended Allen
relation predicate* suite:

* **Gapless array-backed active sets.** Each side's currently open
  intervals live in a plain list of ``(hi, payload)`` tuples with no
  holes: an expired entry is removed by swapping the last entry into its
  slot (during the very scan that visits it), so enumeration is one
  forward pass over a dense array — the cache-efficiency trick of the
  paper, and the fix for the classic sort/merge join's rebuild-per-
  arrival expiry.
* **Lazy joining.** Pairs are produced from active-set snapshots at the
  sweep position where the predicate becomes decidable — arrival time
  for intersection-style predicates, expiry time for the ``finishes``
  family, the retired prefix for ``before`` — so every predicate is
  enumerated output-sensitively from the same endpoint-sorted pass.
* **One shared sort.** Atomic predicates and any ``-or-`` union of them
  are answered from a single endpoint-sorted event sweep; a union never
  re-sorts per member.
* **No sort for endpoint equality.** ``meets``, ``starts``,
  ``started-by``, ``finishes``, ``finished-by`` and ``equals`` fix an
  endpoint of one side to one of the other, so a hash on ``(key,
  endpoint)`` finds every candidate pair (:func:`endpoint_hash_join`,
  :data:`HASH_ATOMS`). The registry runs it for a predicate made only
  of these atoms on the kernel and ``prepared=`` routes; a union with
  ``overlaps``, ``before``, ``during`` or ``contains`` stays on the
  sweep, and so does :func:`lazy_sweep_join` for every predicate.

Predicates (``r`` = left item, ``s`` = right item; closed intervals):

=============  =====================================================
``overlaps``   nonempty intersection (touching counts) — the repo's
               historical join predicate and the default everywhere
``before``     ``r.hi < s.lo`` (strictly earlier, no touching)
``meets``      ``r.hi == s.lo``
``starts``     ``r.lo == s.lo`` and ``r.hi < s.hi``
``started-by`` ``r.lo == s.lo`` and ``r.hi > s.hi``
``finishes``   ``r.hi == s.hi`` and ``r.lo > s.lo``
``finished-by````r.hi == s.hi`` and ``r.lo < s.lo``
``during``     ``s.lo < r.lo`` and ``r.hi < s.hi`` (strictly inside)
``contains``   ``r.lo < s.lo`` and ``s.hi < r.hi``
``equals``     both endpoints equal
=============  =====================================================

Union predicates are spelled with ``-or-`` (``before-or-meets``,
``overlaps-or-meets``, ``during-or-equals`` …) and have set semantics: a
pair satisfying several members is reported once.

Every produced pair carries an interval: the intersection when the two
intervals share an instant (an instant ``[t, t]`` for ``meets``), and the
*gap* ``[r.hi, s.lo]`` for ``before`` — the quantity a compliance-window
query ("at least τ between release and audit") filters on.

Endpoint equality here compares *stored* endpoints verbatim (never
values produced by independent shrink/expand arithmetic), the exact
contract of :func:`repro.core.interval.endpoint_eq`; the sweeps unpack
endpoints into locals once per item and compare those, and the hash
join hashes them.

Telemetry (``stats=``): ``allen.events``, ``allen.pairs``,
``allen.active_peak``, ``allen.expiries``, ``allen.atoms`` — see the
DESIGN.md counter glossary. The sweeps and the hash join record
nothing: the sweeps return their peak, and the entry points record
once per call (:func:`record_sweeps`; the registry for the hash join).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..core.errors import QueryError
from ..core.interval import Interval, Number
from ..obs import NULL_TRACER, Tracer

A = TypeVar("A")
B = TypeVar("B")
Item = Tuple[A, Interval]
Pair = Tuple[A, B, Interval]

#: ``(payload, lo, hi)`` — items with endpoints unpacked into the tuple,
#: so the sweep's inner loops never touch an attribute.
_Unpacked = Tuple[object, Number, Number]

_BY_LO_HI = itemgetter(1, 2)

_object_new = object.__new__
_object_setattr = object.__setattr__


# ----------------------------------------------------------------------
# Predicate registry
# ----------------------------------------------------------------------
class AllenAtom:
    """One atomic extended-Allen predicate: a name plus its truth test.

    ``holds(llo, lhi, slo, shi)`` is the O(1) definition on raw
    endpoints — the oracle the sweeps are tested against, and the
    suppression check union evaluation uses for set semantics.
    """

    __slots__ = ("name", "holds")

    def __init__(
        self, name: str, holds: Callable[[Number, Number, Number, Number], bool]
    ) -> None:
        self.name = name
        self.holds = holds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AllenAtom({self.name!r})"


ATOMS: Dict[str, AllenAtom] = {
    atom.name: atom
    for atom in (
        AllenAtom("overlaps", lambda llo, lhi, slo, shi:
                  (llo if llo > slo else slo) <= (lhi if lhi < shi else shi)),
        AllenAtom("before", lambda llo, lhi, slo, shi: lhi < slo),
        AllenAtom("meets", lambda llo, lhi, slo, shi: lhi == slo),
        AllenAtom("starts", lambda llo, lhi, slo, shi:
                  llo == slo and lhi < shi),
        AllenAtom("started-by", lambda llo, lhi, slo, shi:
                  llo == slo and lhi > shi),
        AllenAtom("finishes", lambda llo, lhi, slo, shi:
                  lhi == shi and llo > slo),
        AllenAtom("finished-by", lambda llo, lhi, slo, shi:
                  lhi == shi and llo < slo),
        AllenAtom("during", lambda llo, lhi, slo, shi:
                  slo < llo and lhi < shi),
        AllenAtom("contains", lambda llo, lhi, slo, shi:
                  llo < slo and shi < lhi),
        AllenAtom("equals", lambda llo, lhi, slo, shi:
                  llo == slo and lhi == shi),
    )
}


def predicate_names() -> List[str]:
    """Atomic predicate names (sorted); unions join them with ``-or-``."""
    return sorted(ATOMS)


def parse_predicate(predicate: str) -> Tuple[str, ...]:
    """Split a predicate spec into its atomic members, validated.

    ``"overlaps"`` → ``("overlaps",)``; ``"before-or-meets"`` →
    ``("before", "meets")``. Atom names containing dashes are unambiguous
    because ``-or-`` never occurs inside one. Duplicate members collapse
    (first occurrence wins). Raises :class:`QueryError` naming the valid
    atoms on any unknown member.
    """
    if not isinstance(predicate, str) or not predicate:
        raise QueryError(
            f"predicate must be a non-empty string, got {predicate!r}; "
            f"choose from {predicate_names()} or '-or-' unions of them"
        )
    seen: List[str] = []
    for part in predicate.split("-or-"):
        if part not in ATOMS:
            raise QueryError(
                f"unknown interval predicate {part!r} in {predicate!r}; "
                f"choose from {predicate_names()} "
                "(combine with '-or-', e.g. 'before-or-meets')"
            )
        if part not in seen:
            seen.append(part)
    return tuple(seen)


def pair_interval(llo: Number, lhi: Number, slo: Number, shi: Number) -> Tuple[Number, Number]:
    """Endpoints of the interval a produced pair carries.

    Intersection when the intervals share an instant; the gap
    ``[lhi, slo]`` otherwise (only ``before`` pairs reach that branch —
    ``meets`` pairs intersect at the touching instant).
    """
    lo = llo if llo > slo else slo
    hi = lhi if lhi < shi else shi
    if lo <= hi:
        return lo, hi
    return lhi, slo


def _unpack(items: Sequence[Item]) -> List[_Unpacked]:
    """Sort items by ``(lo, hi)`` with endpoints hoisted out of Interval."""
    out = [(payload, ivl.lo, ivl.hi) for payload, ivl in items]
    out.sort(key=_BY_LO_HI)
    return out


# ----------------------------------------------------------------------
# The hot path: pure "overlaps" via the lazy arrival sweep
# ----------------------------------------------------------------------
def overlap_sweep(
    ls: List[Tuple[object, Number, Number, Interval]],
    rs: List[Tuple[object, Number, Number, Interval]],
    out: List[Pair],
) -> Tuple[int, int, int]:
    """Append all intersecting pairs of two ``(lo, hi)``-sorted lists to ``out``.

    Inputs are ``(payload, lo, hi, interval)`` 4-tuples sorted by
    ``(lo, hi)`` (``_BY_LO_HI``), so a caller that keeps its rows in that
    shape (HYBRID-INTERVAL's residual groups) joins without re-sorting
    or re-unpacking per call.

    Merge by start; an arriving item is paired against the other side's
    active set in one forward pass that *compacts as it scans*: an entry
    whose ``hi`` precedes the newcomer's ``lo`` is swap-removed (last
    entry fills the hole) without breaking the pass — the gapless-array
    expiry of Piatov et al., amortized O(1) per expiry, zero extra
    passes. Each pair is produced exactly once, at the later arrival
    (ties go to the left side, like the forward scan).

    Two construction shortcuts keep the per-pair cost minimal: when the
    active partner outlives the newcomer the intersection *is* the
    newcomer's own (immutable) interval, which is reused untouched; the
    truncated case builds the interval inline without ``__init__``
    validation (safe: both endpoints come from validated intervals and
    ``lo <= hi`` holds because the pair intersects).

    Returns ``(items, remaining, active_peak)``: the input items, those
    still active at the end (the rest expired), and the largest combined
    active-set size after any step. Each step adds one entry and a
    compaction only removes, so the size peaks just before a compaction
    or at the end: it is read there, never per step. Records nothing.
    """
    peak = 0
    active_l: List[Tuple[Number, object]] = []
    active_r: List[Tuple[Number, object]] = []
    append_l = active_l.append
    append_r = active_r.append
    emit = out.append
    new = _object_new
    put = _object_setattr
    cls = Interval
    i = j = 0
    nl, nr = len(ls), len(rs)
    while True:
        if i < nl and (j >= nr or ls[i][1] <= rs[j][1]):
            lpay, llo, lhi, livl = ls[i]
            i += 1
            k = 0
            end = size = len(active_r)
            while k < end:
                rhi, rpay = active_r[k]
                if rhi < llo:
                    end -= 1
                    active_r[k] = active_r[end]
                    continue
                if rhi >= lhi:
                    emit((lpay, rpay, livl))
                else:
                    iv = new(cls)
                    put(iv, "lo", llo)
                    put(iv, "hi", rhi)
                    emit((lpay, rpay, iv))
                k += 1
            if end != size:
                depth = len(active_l) + size
                if depth > peak:
                    peak = depth
                del active_r[end:]
            append_l((lhi, lpay))
        elif j < nr:
            rpay, rlo, rhi, rivl = rs[j]
            j += 1
            k = 0
            end = size = len(active_l)
            while k < end:
                lhi, lpay = active_l[k]
                if lhi < rlo:
                    end -= 1
                    active_l[k] = active_l[end]
                    continue
                if lhi >= rhi:
                    emit((lpay, rpay, rivl))
                else:
                    iv = new(cls)
                    put(iv, "lo", rlo)
                    put(iv, "hi", lhi)
                    emit((lpay, rpay, iv))
                k += 1
            if end != size:
                depth = size + len(active_r)
                if depth > peak:
                    peak = depth
                del active_l[end:]
            append_r((rhi, rpay))
        else:
            break
    depth = len(active_l) + len(active_r)
    return nl + nr, depth, peak if peak > depth else depth


# ----------------------------------------------------------------------
# The general engine: one endpoint-event sweep, any atom set
# ----------------------------------------------------------------------
def _event_sweep(
    ls: List[_Unpacked],
    rs: List[_Unpacked],
    atoms: Sequence[str],
) -> Tuple[List[Tuple[object, object, Number, Number]], int]:
    """Raw pairs ``(lpay, rpay, lo, hi)`` for a set of atomic predicates.

    One endpoint-sorted event pass shared by every requested atom.
    Events at one sweep position are processed as a batch: the position's
    arrival/expiry groups per side (``LS``/``RS``/``LE``/``RE``) plus the
    gapless active arrays give each atom exactly the snapshot it needs:

    * start-aligned atoms (``starts``/``started-by``/``equals``) read
      ``LS × RS``;
    * end-aligned atoms (``finishes``/``finished-by``) read ``LE × RE``;
    * ``meets`` reads ``LE × RS`` (left expiring exactly where a right
      starts);
    * ``before`` pairs each arriving right with the *retired* left
      prefix (everything expired at a strictly earlier position) —
      output-sensitive even though the relation itself is quadratic;
    * ``overlaps``/``during``/``contains`` scan the other side's active
      array at arrival, filtering on the strict-containment endpoints.

    Union semantics: a pair satisfying several atoms is emitted only by
    the first satisfied atom in ``atoms`` order (the others suppress it
    via the O(1) ``holds`` check), so the result is a set union without
    a seen-hash over the output.

    Works unchanged over real endpoints and over rank-space ints — the
    caller maps emitted endpoints to intervals. Returns the raw pairs and
    the largest combined active-set size; every item expires once.
    """
    want = [ATOMS[name] for name in atoms]
    earlier = {
        name: [ATOMS[prev].holds for prev in atoms[:idx]]
        for idx, name in enumerate(atoms)
    }
    out: List[Tuple[object, object, Number, Number]] = []

    # One shared sort: every endpoint of both sides, arrivals before
    # expiries at equal positions (touching counts), left before right,
    # input order breaking the remaining ties deterministically.
    events: List[Tuple[Number, int, int, int]] = []
    append_event = events.append
    for idx, (_, lo, hi) in enumerate(ls):
        append_event((lo, 0, 0, idx))
        append_event((hi, 1, 0, idx))
    for idx, (_, lo, hi) in enumerate(rs):
        append_event((lo, 0, 1, idx))
        append_event((hi, 1, 1, idx))
    events.sort()

    active_l: List[Tuple[int, object, Number, Number]] = []
    active_r: List[Tuple[int, object, Number, Number]] = []
    pos_l = [-1] * len(ls)
    pos_r = [-1] * len(rs)
    retired_l: List[Tuple[object, Number, Number]] = []

    names = frozenset(atoms)
    peak = 0

    def emit(atom_name: str, lpay, llo, lhi, rpay, slo, shi) -> None:
        for holds in earlier[atom_name]:
            if holds(llo, lhi, slo, shi):
                return
        out.append((lpay, rpay) + pair_interval(llo, lhi, slo, shi))

    n_events = len(events)
    pos = 0
    while pos < n_events:
        t = events[pos][0]
        batch_end = pos
        ls_batch: List[int] = []
        rs_batch: List[int] = []
        le_batch: List[int] = []
        re_batch: List[int] = []
        while batch_end < n_events and events[batch_end][0] == t:
            _, kind, side, idx = events[batch_end]
            if kind == 0:
                (ls_batch if side == 0 else rs_batch).append(idx)
            else:
                (le_batch if side == 0 else re_batch).append(idx)
            batch_end += 1
        pos = batch_end

        # -- production, against pre-batch active sets and the batches --
        if "before" in names and rs_batch and retired_l:
            # Every retired left expired strictly before t == s.lo.
            for ridx in rs_batch:
                rpay, slo, shi = rs[ridx]
                for lpay, llo, lhi in retired_l:
                    emit("before", lpay, llo, lhi, rpay, slo, shi)
        if "meets" in names and le_batch and rs_batch:
            for lidx in le_batch:
                lpay, llo, lhi = ls[lidx]
                for ridx in rs_batch:
                    rpay, slo, shi = rs[ridx]
                    emit("meets", lpay, llo, lhi, rpay, slo, shi)
        if ls_batch and rs_batch:
            for name in ("starts", "started-by", "equals"):
                if name not in names:
                    continue
                holds = ATOMS[name].holds
                for lidx in ls_batch:
                    lpay, llo, lhi = ls[lidx]
                    for ridx in rs_batch:
                        rpay, slo, shi = rs[ridx]
                        if holds(llo, lhi, slo, shi):
                            emit(name, lpay, llo, lhi, rpay, slo, shi)
        if le_batch and re_batch:
            for name in ("finishes", "finished-by"):
                if name not in names:
                    continue
                holds = ATOMS[name].holds
                for lidx in le_batch:
                    lpay, llo, lhi = ls[lidx]
                    for ridx in re_batch:
                        rpay, slo, shi = rs[ridx]
                        if holds(llo, lhi, slo, shi):
                            emit(name, lpay, llo, lhi, rpay, slo, shi)

        # -- arrivals enter the active arrays (gapless appends) --
        for lidx in ls_batch:
            pos_l[lidx] = len(active_l)
            lpay, llo, lhi = ls[lidx]
            active_l.append((lidx, lpay, llo, lhi))
        for ridx in rs_batch:
            pos_r[ridx] = len(active_r)
            rpay, slo, shi = rs[ridx]
            active_r.append((ridx, rpay, slo, shi))

        # -- active-array scans for the intersection-style atoms --
        # Arriving left vs active rights: rights that arrived earlier or
        # in this batch; explicit endpoint filters keep each atom exact
        # regardless of the snapshot convention.
        if ls_batch:
            scan_overlaps = "overlaps" in names
            scan_during = "during" in names
            if scan_overlaps or scan_during:
                for lidx in ls_batch:
                    lpay, llo, lhi = ls[lidx]
                    for _, rpay, slo, shi in active_r:
                        if scan_overlaps and slo < llo:
                            # slo == llo pairs are claimed by the
                            # right-arrival scan below; actives with
                            # slo > llo cannot exist yet.
                            emit("overlaps", lpay, llo, lhi, rpay, slo, shi)
                        if scan_during and slo < llo and lhi < shi:
                            emit("during", lpay, llo, lhi, rpay, slo, shi)
        if rs_batch:
            scan_overlaps = "overlaps" in names
            scan_contains = "contains" in names
            if scan_overlaps or scan_contains:
                for ridx in rs_batch:
                    rpay, slo, shi = rs[ridx]
                    for _, lpay, llo, lhi in active_l:
                        if scan_overlaps and llo <= slo:
                            emit("overlaps", lpay, llo, lhi, rpay, slo, shi)
                        if scan_contains and llo < slo and shi < lhi:
                            emit("contains", lpay, llo, lhi, rpay, slo, shi)

        # The arrivals of a position without expiries only grow the next
        # position's size, so the peak is read where items expire.
        if (le_batch or re_batch) and len(active_l) + len(active_r) > peak:
            peak = len(active_l) + len(active_r)

        # -- expiries leave via swap-remove; lefts join the retired list --
        for lidx in le_batch:
            slot = pos_l[lidx]
            last = active_l.pop()
            if last[0] != lidx:
                active_l[slot] = last
                pos_l[last[0]] = slot
            pos_l[lidx] = -1
            if "before" in names:
                retired_l.append((ls[lidx][0], ls[lidx][1], ls[lidx][2]))
        for ridx in re_batch:
            slot = pos_r[ridx]
            last = active_r.pop()
            if last[0] != ridx:
                active_r[slot] = last
                pos_r[last[0]] = slot
            pos_r[ridx] = -1
    return out, peak


# ----------------------------------------------------------------------
# Endpoint-equality atoms: one hash join, no sort of the inputs
# ----------------------------------------------------------------------
#: ``(payload, key, lo, hi)`` — an item with its shared-attribute key.
Keyed = Tuple[object, object, Number, Number]

#: An item's hash key: its shared-attribute key and one or both endpoints.
_KEY_LO = itemgetter(1, 2)
_KEY_HI = itemgetter(1, 3)
_KEY_LO_HI = itemgetter(1, 2, 3)

#: The atoms that fix an endpoint of ``r`` to one of ``s``: atom ->
#: ``(the key s is bucketed on, the key of r that probes it, the free
#: endpoint filter)``. The filter is ``None`` (the whole bucket) or
#: ``(position, above)``: buckets are sorted on that endpoint of ``s``
#: (2 = lo, 3 = hi), and the kept items are those whose endpoint lies
#: strictly above (or below) the same endpoint of ``r`` — one slice.
HASH_ATOMS: Dict[str, Tuple[Callable, Callable, Optional[Tuple[int, bool]]]] = {
    "equals": (_KEY_LO_HI, _KEY_LO_HI, None),
    "meets": (_KEY_LO, _KEY_HI, None),
    "starts": (_KEY_LO, _KEY_LO, (3, True)),
    "started-by": (_KEY_LO, _KEY_LO, (3, False)),
    "finishes": (_KEY_HI, _KEY_HI, (2, False)),
    "finished-by": (_KEY_HI, _KEY_HI, (2, True)),
}


def fixes_endpoints(atoms: Sequence[str]) -> bool:
    """Whether :func:`endpoint_hash_join` answers every atom of ``atoms``."""
    return all(name in HASH_ATOMS for name in atoms)


def _buckets(rs: Sequence[Keyed], key: Callable, free: Optional[int]) -> Dict:
    """``rs`` grouped on ``key``; with ``free`` each bucket is
    ``(free endpoints, items)``, sorted on that endpoint."""
    buckets: Dict = {}
    for bucket_key, item in zip(map(key, rs), rs):
        bucket = buckets.get(bucket_key)
        if bucket is None:
            buckets[bucket_key] = [item]
        else:
            bucket.append(item)
    if free is not None:
        by_free = itemgetter(free)
        for bucket_key, bucket in buckets.items():
            bucket.sort(key=by_free)
            buckets[bucket_key] = (list(map(by_free, bucket)), bucket)
    return buckets


def endpoint_hash_join(
    ls: Sequence[Keyed], rs: Sequence[Keyed], atoms: Sequence[str]
) -> List[Tuple[object, object, Number, Number]]:
    """Raw pairs ``(lpay, rpay, lo, hi)`` for atoms that each fix an endpoint.

    Items are ``(payload, key, lo, hi)``; a pair must share its key.
    Each atom buckets ``rs`` on ``(key, endpoint)`` (:data:`HASH_ATOMS`)
    and probes with every left item, so no input is sorted. Equality is
    the stored endpoints' ``==`` (:func:`repro.core.interval.endpoint_eq`),
    and ``hash(1) == hash(1.0) == hash(True)``, so the buckets keep it.
    ``starts``/``finishes``-type buckets are sorted on the free endpoint
    and read as one bisected slice, so the join is output-sensitive.
    Atoms that bucket alike share one set of buckets.

    Pairs carry :func:`pair_interval` (the instant ``[t, t]`` for
    ``meets``). Union semantics are :func:`_event_sweep`'s: a pair is
    emitted by the first satisfied atom in ``atoms`` order only.
    """
    out: List[Tuple[object, object, Number, Number]] = []
    emit = out.append
    built: Dict[Tuple[Callable, Optional[int]], Dict] = {}
    for idx, name in enumerate(atoms):
        key, probe, keep = HASH_ATOMS[name]
        earlier = [ATOMS[prev].holds for prev in atoms[:idx]]
        shape = (key, None if keep is None else keep[0])
        if shape not in built:
            built[shape] = _buckets(rs, *shape)
        for item, bucket in zip(ls, map(built[shape].get, map(probe, ls))):
            if bucket is None:
                continue
            if keep is not None:
                free, above = keep
                frees, bucket = bucket
                if above:
                    bucket = bucket[bisect_right(frees, item[free]):]
                else:
                    bucket = bucket[:bisect_left(frees, item[free])]
            lpay, _, llo, lhi = item
            for rpay, _, slo, shi in bucket:
                if earlier and any(h(llo, lhi, slo, shi) for h in earlier):
                    continue
                emit((lpay, rpay) + pair_interval(llo, lhi, slo, shi))
    return out


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def record_sweeps(
    stats: Tracer, items: int, expiries: int, peak: int, atoms: int, pairs: int
) -> None:
    """Record the ``allen.*`` counters of sweeps over ``items`` input items.

    Each item is two events; ``peak`` is the largest active-set size of
    any of the sweeps, ``atoms`` the atomic predicates they answered
    (summed over sweeps) and ``pairs`` the pairs they produced.
    """
    stats.incr("allen.events", 2 * items)
    stats.incr("allen.expiries", expiries)
    stats.peak("allen.active_peak", peak)
    stats.incr("allen.atoms", atoms)
    stats.incr("allen.pairs", pairs)


def lazy_sweep_join(
    left: Sequence[Item],
    right: Sequence[Item],
    predicate: str = "overlaps",
    stats: Tracer = NULL_TRACER,
) -> List[Pair]:
    """All pairs satisfying ``predicate`` via the lazy endpoint sweep.

    The ``JOIN_STRATEGIES["lazy-sweep"]`` entry. For the default
    ``overlaps`` the output is the same pair multiset as
    :func:`~repro.algorithms.interval_join.forward_scan_join` (each
    intersecting pair once, carrying the intersection interval); any
    other atomic predicate or ``-or-`` union is answered from one shared
    endpoint-event sweep. Inputs need not be sorted.
    """
    atoms = parse_predicate(predicate)
    items = len(left) + len(right)
    if atoms == ("overlaps",):
        ls4 = [(payload, ivl.lo, ivl.hi, ivl) for payload, ivl in left]
        rs4 = [(payload, ivl.lo, ivl.hi, ivl) for payload, ivl in right]
        ls4.sort(key=_BY_LO_HI)
        rs4.sort(key=_BY_LO_HI)
        out: List[Pair] = []
        _, remaining, peak = overlap_sweep(ls4, rs4, out)
        record_sweeps(stats, items, items - remaining, peak, 1, len(out))
        return out
    fast = Interval._fast
    raw, peak = _event_sweep(_unpack(left), _unpack(right), atoms)
    record_sweeps(stats, items, items, peak, len(atoms), len(raw))
    return [(a, b, fast(lo, hi)) for a, b, lo, hi in raw]


def lazy_sweep_pairs_ranked(
    left: Sequence[Tuple[object, int, int]],
    right: Sequence[Tuple[object, int, int]],
    times: Sequence[Number],
    atoms: Sequence[str],
) -> Tuple[List[Pair], int]:
    """The sweep over rank-space endpoints (the kernel engines' path).

    ``left``/``right`` are ``(payload, lo_rank, hi_rank)`` triples over a
    shared endpoint rank space whose rank → time table is ``times``
    (:attr:`~repro.kernels.columns.KernelColumns.rank_times`); ``atoms``
    is a parsed predicate (:func:`parse_predicate`). Emitted intervals
    carry the original times; all predicate comparisons happen on the
    dense int ranks, which is exact because ranking preserves order and
    equality. ``overlaps`` runs the shared :func:`_event_sweep` like
    every other atom. Returns the pairs and the sweep's active peak and
    records nothing: the caller runs one sweep per key group and
    records their totals once (:func:`record_sweeps`).
    """
    ls = sorted(left, key=_BY_LO_HI)
    rs = sorted(right, key=_BY_LO_HI)
    fast = Interval._fast
    raw, peak = _event_sweep(ls, rs, atoms)
    return [(a, b, fast(times[lo], times[hi])) for a, b, lo, hi in raw], peak
