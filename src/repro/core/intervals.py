"""Closed-interval algebra on the real line.

The minimal functional subset (MFS) pruning of Lillis & Cheng (Sec. IV-D)
repeatedly manipulates *regions of the external-capacitance domain*: the set
of ``c_E`` values for which one candidate solution dominates another.  Those
regions are finite unions of closed intervals.  This module provides an
immutable :class:`IntervalSet` with the union / intersection / difference
operations the pruner needs, plus measure and membership queries.

Conventions
-----------
* Intervals are closed ``[lo, hi]`` with ``lo <= hi``; degenerate point
  intervals (``lo == hi``) are permitted — a solution can be uniquely optimal
  at a single crossover capacitance.
* Adjacent or overlapping intervals are always coalesced, so every
  :class:`IntervalSet` has a unique canonical form, which makes equality
  checks meaningful in tests.
* A small tolerance ``ATOL`` is used when coalescing so that floating-point
  noise from PWL breakpoint arithmetic does not produce spurious slivers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable, Iterator, List, Sequence, Tuple

__all__ = ["Interval", "IntervalSet", "ATOL"]

#: Absolute tolerance used when deciding whether two interval endpoints touch.
ATOL = 1e-12

#: ``tuple.__new__``: builds an :class:`Interval` from endpoints already
#: known to be valid, skipping the checking constructor.
_raw = tuple.__new__


class Interval(namedtuple("_IntervalFields", ("lo", "hi"))):
    """A closed interval ``[lo, hi]`` on the real line.

    Tuple-backed: immutable, equal and hashed as its ``(lo, hi)`` pair and
    ordered by it, so a sort needs no key function.  Hot loops unpack
    ``lo, hi = iv`` instead of reading the fields one by one.
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float) -> "Interval":
        if lo != lo or hi != hi:
            raise ValueError("interval endpoints may not be NaN")
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        return _raw(cls, (lo, hi))

    @property
    def length(self) -> float:
        """Measure of the interval (0 for a point interval)."""
        return self[1] - self[0]

    @property
    def midpoint(self) -> float:
        """A representative interior point of the interval."""
        lo, hi = self
        if math.isinf(lo) and math.isinf(hi):
            return 0.0
        if math.isinf(hi):
            return lo + 1.0
        if math.isinf(lo):
            return hi - 1.0
        return 0.5 * (lo + hi)

    def contains(self, x: float, atol: float = 0.0) -> bool:
        """Return True when ``x`` lies in ``[lo - atol, hi + atol]``."""
        return self[0] - atol <= x <= self[1] + atol

    def overlaps(self, other: "Interval", atol: float = ATOL) -> bool:
        """Return True when the two closed intervals intersect or touch."""
        return self[0] <= other[1] + atol and other[0] <= self[1] + atol

    def intersect(self, other: "Interval") -> "Interval | None":
        """Intersection with ``other`` or None when disjoint."""
        lo = max(self[0], other[0])
        hi = min(self[1], other[1])
        if lo > hi:
            return None
        return _raw(Interval, (lo, hi))

    def shift(self, delta: float) -> "Interval":
        """Translate the interval by ``delta``."""
        return Interval(self[0] + delta, self[1] + delta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self[0]:g}, {self[1]:g}]"


def _coalesce(intervals: Iterable[Interval], atol: float) -> Tuple[Interval, ...]:
    """Sort and merge overlapping/touching intervals into canonical form.

    Input already in ``(lo, hi)`` order -- what every set operation below
    produces -- skips the sort: a stable sort would return it unchanged.
    """
    items = intervals if isinstance(intervals, (list, tuple)) else list(intervals)
    if len(items) < 2:
        return tuple(items)
    merged = _merge_ordered(items, atol)
    if merged is None:
        merged = _merge_ordered(sorted(items), atol)
    return tuple(merged)


def _merge_ordered(items: Sequence[Interval], atol: float):
    """Merge runs of ``(lo, hi)``-ordered intervals that overlap or touch.

    Returns None as soon as an interval is out of order.  A run keeps its
    first interval object until a later member extends its ``hi``.  Tied
    zero endpoints resolve by sign, not by input order: ``-0.0`` wins
    ``lo`` and ``0.0`` wins ``hi``, the run's sign-aware min and max.
    """
    merged: List[Interval] = []
    it = iter(items)
    prev = cur = next(it)
    cur_lo, cur_hi = cur
    for iv in it:
        if iv < prev:
            return None
        prev = iv
        lo, hi = iv
        if lo <= cur_hi + atol:
            if hi > cur_hi or (
                hi == cur_hi == 0.0  # repro: noqa[R001] signed-zero tie
                and math.copysign(1.0, cur_hi) < math.copysign(1.0, hi)
            ):
                cur_hi = hi
                cur = None
            if (
                lo == cur_lo == 0.0  # repro: noqa[R001] signed-zero tie
                and math.copysign(1.0, lo) < math.copysign(1.0, cur_lo)
            ):
                cur_lo = lo
                cur = None
        else:
            merged.append(cur if cur is not None else _raw(Interval, (cur_lo, cur_hi)))
            cur = iv
            cur_lo = lo
            cur_hi = hi
    merged.append(cur if cur is not None else _raw(Interval, (cur_lo, cur_hi)))
    return merged


class IntervalSet:
    """An immutable finite union of disjoint closed intervals.

    Construction always canonicalizes: intervals are sorted and
    overlapping/touching members merged, so two equal sets compare equal.
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[Interval] = (), *, atol: float = ATOL):
        self._intervals: Tuple[Interval, ...] = _coalesce(intervals, atol)

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalSet":
        """The empty set."""
        return _set(())

    @classmethod
    def single(cls, lo: float, hi: float) -> "IntervalSet":
        """The set consisting of one interval ``[lo, hi]``."""
        return _set((Interval(lo, hi),))

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[float, float]]) -> "IntervalSet":
        """Build from ``(lo, hi)`` tuples."""
        return cls(Interval(lo, hi) for lo, hi in pairs)

    # -- queries -----------------------------------------------------------

    @property
    def intervals(self) -> Tuple[Interval, ...]:
        """The canonical, sorted, disjoint member intervals."""
        return self._intervals

    @property
    def is_empty(self) -> bool:
        return not self._intervals

    @property
    def measure(self) -> float:
        """Total length of the set."""
        return sum(iv.length for iv in self._intervals)

    @property
    def lo(self) -> float:
        """Infimum of the set; raises on the empty set."""
        if not self._intervals:
            raise ValueError("empty IntervalSet has no infimum")
        return self._intervals[0].lo

    @property
    def hi(self) -> float:
        """Supremum of the set; raises on the empty set."""
        if not self._intervals:
            raise ValueError("empty IntervalSet has no supremum")
        return self._intervals[-1].hi

    def contains(self, x: float, atol: float = 0.0) -> bool:
        """Membership test for the point ``x``."""
        for lo, hi in self._intervals:
            if lo - atol <= x <= hi + atol:
                return True
        return False

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = " u ".join(repr(iv) for iv in self._intervals)
        return f"IntervalSet({inner or 'empty'})"

    def approx_equal(self, other: "IntervalSet", atol: float = 1e-9) -> bool:
        """Endpoint-wise approximate equality (for float-noise tolerance)."""
        if len(self) != len(other):
            return False
        for a, b in zip(self, other):
            if not (
                math.isclose(a.lo, b.lo, rel_tol=0.0, abs_tol=atol)
                and math.isclose(a.hi, b.hi, rel_tol=0.0, abs_tol=atol)
            ):
                return False
        return True

    # -- set algebra -------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Set union."""
        return IntervalSet(self._intervals + other._intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """Set intersection via a linear merge of the two sorted lists."""
        return _set(_coalesce(_intersect(self._intervals, other._intervals), ATOL))

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Set difference ``self \\ other``.

        Because intervals are closed, removing a closed interval leaves
        half-open gaps; we approximate by keeping the shared endpoints
        (measure-zero effect), which is the right semantics for dominance
        pruning: a solution that is *tied* at a single point is allowed to be
        pruned there without affecting achievable optima.
        """
        if other.is_empty or self.is_empty:
            return self
        out: List[Interval] = []
        for iv in self._intervals:
            pieces = [iv]
            iv_hi = iv[1]
            for cut in other._intervals:
                cut_lo, cut_hi = cut
                if cut_lo > iv_hi:
                    break
                next_pieces: List[Interval] = []
                for piece in pieces:
                    lo, hi = piece
                    if cut_hi < lo or cut_lo > hi:
                        next_pieces.append(piece)
                        continue
                    if cut_lo > lo:
                        next_pieces.append(_raw(Interval, (lo, cut_lo)))
                    if cut_hi < hi:
                        next_pieces.append(_raw(Interval, (cut_hi, hi)))
                pieces = next_pieces
                if not pieces:
                    break
            out.extend(pieces)
        return IntervalSet(out)

    def shift(self, delta: float) -> "IntervalSet":
        """Translate every interval by ``delta``."""
        return _set(_shifted(self._intervals, delta))

    def clamp(self, lo: float, hi: float) -> "IntervalSet":
        """Intersect with the single interval ``[lo, hi]``."""
        return _set(_clamped(self._intervals, lo, hi))

    def shift_clamp(
        self,
        delta: float,
        lo: float,
        hi: float,
        meet: "Tuple[IntervalSet, float] | None" = None,
    ) -> "IntervalSet":
        """``self.shift(delta)``, intersected with ``meet[0].shift(meet[1])``
        when given, then ``.clamp(lo, hi)``, without the intermediate sets.

        Every stage computes the same endpoints and coalesces as its own
        method does, so the result is interval-for-interval equal to the
        chain (``docs/ALGORITHMS.md`` §14).
        """
        ivs = self._intervals
        if meet is None:
            if len(ivs) == 1:
                (s_lo, s_hi), = ivs
                return _single_clamped(Interval(s_lo + delta, s_hi + delta), lo, hi)
            return _set(_clamped(_shifted(ivs, delta), lo, hi))
        other, other_delta = meet
        if len(ivs) == 1 and len(other._intervals) == 1:
            # one interval a side: each stage yields at most one interval,
            # so the coalescing passes have nothing to merge.  A shift keeps
            # lo <= hi, so of Interval's checks only NaN can fail here
            (s_lo, s_hi), = ivs
            (o_lo, o_hi), = other._intervals
            a_lo = s_lo + delta
            a_hi = s_hi + delta
            b_lo = o_lo + other_delta
            b_hi = o_hi + other_delta
            if a_lo != a_lo or a_hi != a_hi or b_lo != b_lo or b_hi != b_hi:
                raise ValueError("interval endpoints may not be NaN")
            # _intersect's max/min, with its tie rule: the first side wins
            m_lo = b_lo if b_lo > a_lo else a_lo
            m_hi = b_hi if b_hi < a_hi else a_hi
            if m_lo > m_hi:
                return _EMPTY
            return _single_clamped((m_lo, m_hi), lo, hi)
        met = _intersect(_shifted(ivs, delta), _shifted(other._intervals, other_delta))
        return _set(_clamped(_coalesce(met, ATOL), lo, hi))

    def sample_points(self, per_interval: int = 3) -> List[float]:
        """Representative points: endpoints plus interior midpoints.

        Used by tests and by the exhaustive dominance oracle to probe a
        region without discretizing the whole domain.
        """
        pts: List[float] = []
        for iv in self._intervals:
            pts.append(iv.lo)
            if iv.length > 0:
                if per_interval > 2:
                    step = iv.length / (per_interval - 1)
                    pts.extend(iv.lo + k * step for k in range(1, per_interval - 1))
                pts.append(iv.hi)
        return pts


_new_set = object.__new__


def _set(intervals: Tuple[Interval, ...]) -> IntervalSet:
    """An :class:`IntervalSet` over an already canonical interval tuple."""
    out = _new_set(IntervalSet)
    out._intervals = intervals
    return out


def _shifted(ivs: Sequence[Interval], delta: float) -> Tuple[Interval, ...]:
    """Canonical intervals of :meth:`IntervalSet.shift`.

    Translation keeps ``(lo, hi)`` order, so no sort runs; the coalescing
    pass stays because rounding can close a gap to within ``ATOL``.
    """
    return _coalesce([Interval(lo + delta, hi + delta) for lo, hi in ivs], ATOL)


_EMPTY = _set(())


def _single_clamped(iv: Tuple[float, float], lo: float, hi: float) -> IntervalSet:
    """``_set(_clamped((iv,), lo, hi))`` for one interval, inlined."""
    if lo > hi:
        return _EMPTY
    if lo != lo or hi != hi:  # Interval(lo, hi)'s one check left
        raise ValueError("interval endpoints may not be NaN")
    i_lo, i_hi = iv
    c_lo = lo if lo > i_lo else i_lo
    c_hi = hi if hi < i_hi else i_hi
    if c_lo > c_hi:
        return _EMPTY
    return _set((_raw(Interval, (c_lo, c_hi)),))


def _clamped(ivs: Sequence[Interval], lo: float, hi: float) -> Tuple[Interval, ...]:
    """Canonical intervals of :meth:`IntervalSet.clamp`."""
    if lo > hi:
        return ()
    return _coalesce(_intersect(ivs, (Interval(lo, hi),)), ATOL)


def _intersect(
    a: Sequence[Interval], b: Sequence[Interval]
) -> List[Interval]:
    """Pairwise intersections of two sorted interval lists, in order.

    A linear merge: after each pair, advance whichever interval ends
    first.  ``max``/``min`` are spelled out with the same tie rule (the
    first argument wins), so the endpoints are the very floats
    :meth:`Interval.intersect` returns.
    """
    out: List[Interval] = []
    i = j = 0
    na = len(a)
    nb = len(b)
    while i < na and j < nb:
        a_lo, a_hi = a[i]
        b_lo, b_hi = b[j]
        lo = b_lo if b_lo > a_lo else a_lo
        hi = b_hi if b_hi < a_hi else a_hi
        if lo <= hi:
            out.append(_raw(Interval, (lo, hi)))
        if a_hi < b_hi:
            i += 1
        else:
            j += 1
    return out


def union_all(sets: Sequence[IntervalSet]) -> IntervalSet:
    """Union of many interval sets."""
    out = IntervalSet.empty()
    for s in sets:
        out = out.union(s)
    return out
