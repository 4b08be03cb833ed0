"""Piece-wise linear (PWL) functions of the external capacitance ``c_E``.

Section IV-C of Lillis & Cheng defines a PWL function as a set of quadruples
``(y-intercept, slope, domain-lo, domain-hi)`` — line segments with disjoint
domains — and lists the primitives their repeater-insertion dynamic program
needs (paper Eq. (3)):

* piece-wise **maximum** of two PWLs,
* **adding a scalar** (shifting the y-intercepts),
* **adding a linear function** ``a + b*x`` (e.g. accumulating a wire or
  driver resistance ``b`` into every slope),
* **domain substitution** ``g(x) = f(x + c)`` (when a sibling subtree or a
  wire adds capacitance ``c`` to everything a source inside the subtree can
  see — here called :meth:`PWL.shift`),
* **evaluation** at a known capacitance (when a repeater decouples the
  subtree and ``c_E`` becomes the repeater's input capacitance).

All the operators run in time linear in the number of participating
segments, as the paper requires.

Domains are finite unions of closed intervals: after minimal-functional-
subset pruning (Sec. IV-D), a solution may only remain optimal on part of
the ``c_E`` axis, so its PWLs acquire *holes*.  Within each maximal run of
contiguous segments the function is continuous (all our generators are
maxima of continuous functions), but the class itself does not require it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial
from operator import itemgetter
from typing import Iterable, List, Optional, Sequence, Tuple

from ..check import contracts
from .intervals import ATOL, Interval, IntervalSet

__all__ = ["Segment", "PWL", "maximum_all", "max_segment_count"]

#: Tolerance used when merging collinear segments and comparing breakpoints.
_EPS = 1e-9

_INF = math.inf

#: ``tuple.__new__``: builds a :class:`Segment` or an ``Interval`` from
#: values already known to be valid, skipping the checking constructor.
_raw = tuple.__new__


class Segment(namedtuple("_SegmentFields", ("lo", "hi", "intercept", "slope"))):
    """One line segment: ``y = intercept + slope * x`` for ``x in [lo, hi]``.

    Mirrors the paper's quadruple ``(y, slope, lo, hi)`` (Definition 4.1).
    Degenerate point segments (``lo == hi``) are allowed; they arise when
    pruning leaves a solution optimal only at a crossover capacitance.

    Tuple-backed: immutable, equal and hashed as its field tuple.  Hot
    loops unpack ``lo, hi, intercept, slope = seg``.
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float, intercept: float, slope: float) -> "Segment":
        # one chained comparison accepts every valid segment (NaN fails
        # each test); _reject names the first problem
        if not (
            -_INF < lo <= hi < _INF
            and -_INF < intercept < _INF
            and -_INF < slope < _INF
        ):
            _reject(lo, hi)
        return _raw(cls, (lo, hi, intercept, slope))

    def value(self, x: float) -> float:
        """Evaluate the segment's line at ``x`` (domain not checked)."""
        return self[2] + self[3] * x

    def interval(self) -> Interval:
        """The segment's domain as an :class:`Interval`."""
        return _raw(Interval, (self[0], self[1]))

    def same_line(self, other: "Segment", atol: float = _EPS) -> bool:
        """True when both segments lie on (numerically) the same line."""
        return (
            abs(self.intercept - other.intercept) <= atol * max(1.0, abs(self.intercept))
            and abs(self.slope - other.slope) <= atol * max(1.0, abs(self.slope))
        )


def _reject(lo: float, hi: float) -> None:
    """Raise the ``ValueError`` for a segment that failed validation."""
    if lo > hi:
        raise ValueError(f"segment domain empty: [{lo}, {hi}]")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("segment domain must be finite")
    raise ValueError("segment coefficients must be finite")


#: ``_checked(lo, hi, intercept, slope)``: the checking constructor without
#: the cost of calling the class (primitives build segments from computed,
#: unchecked floats).
_checked = partial(Segment.__new__, Segment)


#: Sort key of segment lists: by domain, ties kept in input order.
_LOHI = itemgetter(0, 1)


def _canonicalize(segments: Iterable[Segment]) -> Tuple[Segment, ...]:
    """Sort segments, reject overlaps, and merge touching collinear runs.

    Input already in ``(lo, hi)`` order -- what every primitive below
    produces -- skips the sort: a stable sort would return it unchanged.
    """
    segs = segments if isinstance(segments, (list, tuple)) else list(segments)
    if len(segs) < 2:
        return tuple(segs)
    merged = _merge_ordered(segs, False)
    if merged is None:
        merged = _merge_ordered(sorted(segs, key=_LOHI), True)
    return tuple(merged)


def _merge_ordered(segs: Sequence[Segment], raise_overlap: bool):
    """Overlap check and collinear merge over ``(lo, hi)``-ordered segments.

    Returns None when a segment is out of order, or overlaps its
    predecessor while ``raise_overlap`` is off (the caller then sorts and
    retries, so an overlap is reported for the same pair a sorted pass
    finds).  A merged run keeps its first segment's line and takes its
    last segment's ``hi`` -- :meth:`Segment.same_line` against the run so
    far, spelled out.
    """
    merged: List[Segment] = []
    it = iter(segs)
    prev = cur = next(it)
    m_lo, m_hi, m_ic, m_sl = cur
    for seg in it:
        lo, hi, ic, sl = seg
        # the previous input segment ends at m_hi: a merge takes its hi
        if lo < prev[0] or (lo == prev[0] and hi < m_hi):
            return None
        if lo < m_hi - ATOL:
            if raise_overlap:
                raise ValueError(f"overlapping segment domains: {prev} and {seg}")
            return None
        prev = seg
        a = abs(m_ic)
        b = abs(m_sl)
        if (
            abs(lo - m_hi) <= ATOL
            and abs(m_ic - ic) <= _EPS * (a if a > 1.0 else 1.0)
            and abs(m_sl - sl) <= _EPS * (b if b > 1.0 else 1.0)
        ):
            m_hi = hi
            cur = None
        else:
            merged.append(cur if cur is not None else _raw(Segment, (m_lo, m_hi, m_ic, m_sl)))
            cur = seg
            m_lo, m_hi, m_ic, m_sl = lo, hi, ic, sl
    merged.append(cur if cur is not None else _raw(Segment, (m_lo, m_hi, m_ic, m_sl)))
    return merged


_new_pwl = object.__new__


def _pwl(segments: Tuple[Segment, ...]) -> "PWL":
    """A :class:`PWL` over an already canonical segment tuple."""
    f = _new_pwl(PWL)
    f._segments = segments
    if contracts.contracts_enabled():
        contracts.verify_pwl(f, context="PWL construction")
    return f


class PWL:
    """An immutable piece-wise linear function with a (possibly holey) domain."""

    __slots__ = ("_segments",)

    def __init__(self, segments: Iterable[Segment]):
        self._segments = _canonicalize(segments)
        if contracts.contracts_enabled():
            contracts.verify_pwl(self, context="PWL construction")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float, lo: float, hi: float) -> "PWL":
        """The constant function ``value`` on ``[lo, hi]``."""
        return _pwl((Segment(lo, hi, value, 0.0),))

    @classmethod
    def linear(cls, intercept: float, slope: float, lo: float, hi: float) -> "PWL":
        """The line ``intercept + slope * x`` on ``[lo, hi]``."""
        return _pwl((Segment(lo, hi, intercept, slope),))

    @classmethod
    def from_breakpoints(cls, xs: Sequence[float], ys: Sequence[float]) -> "PWL":
        """Continuous PWL through the points ``(xs[i], ys[i])``.

        ``xs`` must be strictly increasing.  Convenient in tests.
        """
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("need at least two matching breakpoints")
        segs = []
        for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
            if x1 <= x0:
                raise ValueError("breakpoint xs must be strictly increasing")
            slope = (y1 - y0) / (x1 - x0)
            segs.append(Segment(x0, x1, y0 - slope * x0, slope))
        return cls(segs)

    # -- queries -----------------------------------------------------------

    @property
    def segments(self) -> Tuple[Segment, ...]:
        return self._segments

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    @property
    def is_empty(self) -> bool:
        """True when the domain is empty (the function is nowhere defined)."""
        return not self._segments

    def domain(self) -> IntervalSet:
        """The set of ``x`` where the function is defined."""
        return IntervalSet([_raw(Interval, (s[0], s[1])) for s in self._segments])

    def __call__(self, x: float) -> float:
        return self.evaluate(x)

    def evaluate(self, x: float, atol: float = ATOL) -> float:
        """Value at ``x``; raises ``ValueError`` outside the domain."""
        for lo, hi, intercept, slope in self._segments:
            if lo - atol <= x <= hi + atol:
                return intercept + slope * x
        raise ValueError(f"x={x} outside PWL domain {self.domain()!r}")

    def evaluate_or(self, x: float, default: float, atol: float = ATOL) -> float:
        """Value at ``x`` or ``default`` when ``x`` is outside the domain."""
        for lo, hi, intercept, slope in self._segments:
            if lo - atol <= x <= hi + atol:
                return intercept + slope * x
        return default

    def defined_at(self, x: float, atol: float = ATOL) -> bool:
        for lo, hi, _, _ in self._segments:
            if lo - atol <= x <= hi + atol:
                return True
        return False

    def breakpoints(self) -> List[float]:
        """Sorted list of all domain endpoints."""
        pts: List[float] = []
        for seg in self._segments:
            pts.append(seg.lo)
            pts.append(seg.hi)
        return sorted(set(pts))

    def min_value(self) -> Tuple[float, float]:
        """Return ``(x*, f(x*))`` minimizing f over its domain."""
        if self.is_empty:
            raise ValueError("cannot minimize an empty PWL")
        best_x, best_y = None, math.inf
        for lo, hi, intercept, slope in self._segments:
            for x in (lo, hi):
                y = intercept + slope * x
                if y < best_y:
                    best_x, best_y = x, y
        if best_x is None:
            raise RuntimeError("non-empty PWL yielded no minimizer")
        return best_x, best_y

    def max_value(self) -> Tuple[float, float]:
        """Return ``(x*, f(x*))`` maximizing f over its domain."""
        if self.is_empty:
            raise ValueError("cannot maximize an empty PWL")
        best_x, best_y = None, -math.inf
        for lo, hi, intercept, slope in self._segments:
            for x in (lo, hi):
                y = intercept + slope * x
                if y > best_y:
                    best_x, best_y = x, y
        if best_x is None:
            raise RuntimeError("non-empty PWL yielded no maximizer")
        return best_x, best_y

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PWL):
            return NotImplemented
        return self._segments == other._segments

    def __hash__(self) -> int:
        return hash(self._segments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"[{s.lo:g},{s.hi:g}]: {s.intercept:g}+{s.slope:g}x" for s in self._segments
        )
        return f"PWL({parts or 'empty'})"

    def approx_equal(self, other: "PWL", atol: float = 1e-7) -> bool:
        """Pointwise approximate equality on the union of breakpoints.

        Both functions must share (approximately) the same domain.
        """
        if not self.domain().approx_equal(other.domain(), atol=atol):
            return False
        for x in sorted(set(self.breakpoints()) | set(other.breakpoints())):
            if self.defined_at(x, atol=atol) != other.defined_at(x, atol=atol):
                return False
            if self.defined_at(x, atol=atol):
                if abs(self.evaluate(x) - other.evaluate(x)) > atol:
                    return False
        return True

    # -- Eq. (3) primitives --------------------------------------------------

    def add_scalar(self, a: float) -> "PWL":
        """``f + a``: raise every y-intercept by ``a`` (paper's scalar add).

        Used when an intrinsic buffer delay or a sink's downstream delay is
        appended to every internal path.
        """
        return _pwl(_add_linear(self._segments, a, None))

    def add_linear(self, a: float, b: float) -> "PWL":
        """``f(x) + a + b*x``.

        The slope increment ``b`` is how accumulated upstream resistance
        enters arrival-time functions: a wire or driver of resistance ``b``
        between the subtree and the rest of the net multiplies the unknown
        external capacitance.
        """
        return _pwl(_add_linear(self._segments, a, b))

    def shift(self, c: float) -> "PWL":
        """Domain substitution ``g(x) = f(x + c)``.

        When capacitance ``c`` (a wire or a sibling subtree) is appended
        *outside* the current subtree, every source inside the subtree now
        sees ``x + c`` where it previously saw ``x``; the function's domain
        translates left by ``c``.  Any part of the domain that would become
        negative is dropped (external capacitance cannot be negative).
        """
        return _pwl(_shift(self._segments, c))

    def restrict(self, region: IntervalSet) -> "PWL":
        """Restrict the domain to ``region`` (for MFS pruning).

        Returns ``self`` when one interval of ``region`` covers every
        segment and no other interval touches them: the general loop would
        rebuild the very same segments (``docs/ALGORITHMS.md`` §14).
        """
        segs = _restrict(self._segments, region)
        return self if segs is self._segments else _pwl(segs)

    def shift_into(
        self,
        c: float,
        region: IntervalSet,
        linear: Optional[Tuple[float, float]] = None,
    ) -> "PWL":
        """``self.shift(c)``, then ``.add_linear(*linear)``, then
        ``.restrict(region)``, without the intermediate functions.

        Segment-for-segment equal to the chain: every stage computes the
        same floats and canonicalizes its output, because the collinear
        merge's tolerance is relative to the coefficients each stage
        changes (``docs/ALGORITHMS.md`` §14).
        """
        return _pwl(_shifted_into(self._segments, c, region, linear))

    def maximum(self, other: "PWL") -> "PWL":
        """Piece-wise maximum of two PWLs on the *intersection* of domains.

        The intersection semantics match the DP's use: when two child
        solutions are joined at a branch, the combined solution only exists
        for ``c_E`` values where both children's functions are defined.
        """
        return _pwl(_combined(self._segments, other._segments, True))

    def minimum(self, other: "PWL") -> "PWL":
        """Piece-wise minimum on the intersection of domains."""
        return _pwl(_combined(self._segments, other._segments, False))

    def region_leq(self, other: "PWL", atol: float = 0.0) -> IntervalSet:
        """The subset of the common domain where ``self(x) <= other(x) + atol``.

        This is the comparison primitive of MFS pruning: where the challenger
        is no worse than the incumbent in one coordinate.
        """
        regions: List[Interval] = []
        for lo, hi, sa, sb in _overlaps(self._segments, other._segments):
            regions.extend(_line_leq_region(sa, sb, lo, hi, atol))
        return IntervalSet(regions)

    def region_lt(self, other: "PWL", atol: float = 0.0) -> IntervalSet:
        """Subset of the common domain where ``self(x) < other(x) - atol``.

        Computed as the ``<=`` region minus the (measure-zero boundary won't
        matter for pruning) region where ``other <= self``; used for
        strict-dominance tie-breaking.
        """
        leq = self.region_leq(other, atol=-atol if atol else 0.0)
        geq = other.region_leq(self, atol=atol)
        return leq.difference(geq)

    def sample(self, xs: Iterable[float]) -> List[Tuple[float, float]]:
        """Evaluate at many points, skipping those outside the domain."""
        out = []
        for x in xs:
            if self.defined_at(x):
                out.append((x, self.evaluate(x)))
        return out

    def simplified(self, max_segments: int) -> "PWL":
        """A conservative upper bound of ``self`` with a segment budget.

        Greedily merges adjacent *touching* segments — the pair whose
        chordal replacement adds the least area goes first — until at most
        ``max_segments`` remain.  Each replacement is a single line lifted
        to dominate both originals, so the result satisfies
        ``simplified(x) >= self(x)`` everywhere: for arrival/diameter
        functions the approximation can only over-report delay, never
        promise timing the exact function would miss.

        Domain holes are never bridged (bridging would invent feasibility
        on capacitances where the solution does not exist); a function
        whose holes alone exceed the budget is returned unchanged.  This
        is the *lossy* half of the MSRI segment budget — exact mode never
        calls it (``docs/PRUNING.md``).
        """
        if max_segments < 1:
            raise ValueError(f"segment budget must be >= 1, got {max_segments}")
        segs = list(self._segments)
        while len(segs) > max_segments:
            best_cost = math.inf
            best_at = -1
            best_seg = None
            for i in range(len(segs) - 1):
                a, b = segs[i], segs[i + 1]
                if b.lo - a.hi > ATOL:
                    continue  # a real hole: never bridge it
                merged = _chord_upper(a, b)
                cost = _merge_area(a, b, merged)
                if cost < best_cost:
                    best_cost, best_at, best_seg = cost, i, merged
            if best_seg is None:
                break  # only holes left between segments; budget unreachable
            segs[best_at:best_at + 2] = [best_seg]
        return self if len(segs) == len(self._segments) else PWL(segs)


# -- internal machinery -----------------------------------------------------
#
# Stage functions map a canonical segment tuple to a canonical segment
# tuple.  Each computes exactly the floats its public primitive always has
# and hands them to _canonicalize in the order they come, which is (lo, hi)
# order but for ATOL-scale overlaps, so the sort is skipped.


def _shift(segs: Tuple[Segment, ...], c: float) -> Tuple[Segment, ...]:
    """Segments of :meth:`PWL.shift`."""
    out: List[Segment] = []
    for lo, hi, intercept, slope in segs:
        hi = hi - c
        if hi < 0.0:
            continue
        lo = lo - c
        # g(x) = f(x + c) = intercept + slope * (x + c)
        out.append(_checked(0.0 if 0.0 > lo else lo, hi, intercept + slope * c, slope))
    return _canonicalize(out)


def _add_linear(
    segs: Tuple[Segment, ...], a: float, b: Optional[float]
) -> Tuple[Segment, ...]:
    """Segments of :meth:`PWL.add_linear`, or of :meth:`PWL.add_scalar`
    when ``b`` is None (no slope addition, so a ``-0.0`` slope stays)."""
    if len(segs) == 1:
        # one segment is already canonical
        lo, hi, intercept, slope = segs[0]
        return (_checked(lo, hi, intercept + a, slope if b is None else slope + b),)
    if b is None:
        out = [_checked(lo, hi, intercept + a, slope) for lo, hi, intercept, slope in segs]
    else:
        out = [_checked(lo, hi, intercept + a, slope + b) for lo, hi, intercept, slope in segs]
    return _canonicalize(out)


def _shifted_into(
    segs: Tuple[Segment, ...],
    c: float,
    region: IntervalSet,
    linear: Optional[Tuple[float, float]] = None,
) -> Tuple[Segment, ...]:
    """Segments of :meth:`PWL.shift_into`.

    One segment into one interval is the common case; it runs the
    stages' own expressions in their order, without the loops, since a
    single segment is already canonical.
    """
    ivs = region._intervals
    if len(segs) == 1 and len(ivs) == 1:
        lo, hi, intercept, slope = segs[0]
        hi = hi - c
        if hi < 0.0:
            return ()
        lo = lo - c
        seg = _checked(0.0 if 0.0 > lo else lo, hi, intercept + slope * c, slope)
        if linear is not None:
            lo, hi, intercept, slope = seg
            seg = _checked(lo, hi, intercept + linear[0], slope + linear[1])
        # _restrict: a covering interval keeps the segment, else clip it
        lo, hi, intercept, slope = seg
        (iv_lo, iv_hi), = ivs
        if iv_lo <= lo and hi <= iv_hi:
            return (seg,)
        lo = iv_lo if iv_lo > lo else lo
        hi = iv_hi if iv_hi < hi else hi
        if lo <= hi:
            return (_raw(Segment, (lo, hi, intercept, slope)),)
        return ()
    segs = _shift(segs, c)
    if linear is not None:
        segs = _add_linear(segs, linear[0], linear[1])
    return _restrict(segs, region)


def _restrict(segs: Tuple[Segment, ...], region: IntervalSet) -> Tuple[Segment, ...]:
    """Segments of :meth:`PWL.restrict`; ``segs`` itself when unchanged."""
    ivs = region._intervals
    if segs:
        first = segs[0][0]
        last = segs[0][1]
        for seg in segs:
            if seg[1] > last:
                last = seg[1]
        if len(ivs) == 1:
            if ivs[0][0] <= first and last <= ivs[0][1]:
                return segs
        else:
            touching = [iv for iv in ivs if iv[0] <= last and first <= iv[1]]
            if len(touching) == 1 and touching[0][0] <= first and last <= touching[0][1]:
                return segs
    out: List[Segment] = []
    for s_lo, s_hi, intercept, slope in segs:
        for iv_lo, iv_hi in ivs:
            # max/min with their tie rule: the segment's own endpoint wins
            lo = iv_lo if iv_lo > s_lo else s_lo
            hi = iv_hi if iv_hi < s_hi else s_hi
            if lo <= hi:
                out.append(_raw(Segment, (lo, hi, intercept, slope)))
    return _canonicalize(out)


def _overlaps(
    fs: Tuple[Segment, ...], gs: Tuple[Segment, ...]
) -> Iterable[Tuple[float, float, Segment, Segment]]:
    """Yield ``(lo, hi, seg_f, seg_g)`` for every overlap of segment domains.

    Linear merge over the two sorted segment lists.
    """
    i = j = 0
    nf, ng = len(fs), len(gs)
    while i < nf and j < ng:
        sa = fs[i]
        sb = gs[j]
        a_lo, a_hi = sa[0], sa[1]
        b_lo, b_hi = sb[0], sb[1]
        # max/min with their tie rule: f's endpoint wins
        lo = b_lo if b_lo > a_lo else a_lo
        hi = b_hi if b_hi < a_hi else a_hi
        if lo <= hi:
            yield lo, hi, sa, sb
        if a_hi < b_hi:
            i += 1
        else:
            j += 1


def _combined(
    fs: Tuple[Segment, ...], gs: Tuple[Segment, ...], max_of: bool
) -> Tuple[Segment, ...]:
    """Segments of :meth:`PWL.maximum` (``max_of``) or :meth:`PWL.minimum`.

    Each overlap (the :func:`_overlaps` walk, inlined) is cut at the
    lines' interior crossing, if any, and every piece takes the line that
    wins at its midpoint.  Lines whose slopes differ by at most ``_EPS``
    count as parallel: their crossing would lie far outside any finite
    domain of interest.  A point overlap is a single piece.  Pieces come
    out in ``(lo, hi)`` order, each once.
    """
    out: List[Segment] = []
    points = False
    i = j = 0
    nf = len(fs)
    ng = len(gs)
    while i < nf and j < ng:
        a_lo, a_hi, a_ic, a_sl = fs[i]
        b_lo, b_hi, b_ic, b_sl = gs[j]
        # max/min with their tie rule: f's endpoint wins
        lo = b_lo if b_lo > a_lo else a_lo
        hi = b_hi if b_hi < a_hi else a_hi
        if lo <= hi:
            ds = a_sl - b_sl
            pieces = ((lo, hi),)
            if abs(ds) > _EPS:
                x = (b_ic - a_ic) / ds
                if lo + _EPS < x < hi - _EPS:
                    pieces = ((lo, x), (x, hi))
            for a, b in pieces:
                mid = 0.5 * (a + b)
                ya = a_ic + a_sl * mid
                yb = b_ic + b_sl * mid
                if (ya >= yb) if max_of else (ya <= yb):
                    piece = _raw(Segment, (a, b, a_ic, a_sl))
                else:
                    piece = _raw(Segment, (a, b, b_ic, b_sl))
                if a == b:
                    # a point shared by two successive overlaps comes out
                    # twice; the collinear merge would fold the copy into
                    # the first
                    if out and _same_bits(piece, out[-1]):
                        continue
                    points = True
                out.append(piece)
        if a_hi < b_hi:
            i += 1
        else:
            j += 1
    return _canonicalize(_dedupe_points(out) if points else out)


def _same_bits(p: Segment, q: Segment) -> bool:
    """``p == q`` with signed zeros told apart (``0.0 == -0.0`` in Python)."""
    return p == q and all(
        math.copysign(1.0, x) == math.copysign(1.0, y) for x, y in zip(p, q)
    )


def _dedupe_points(segments: List[Segment]) -> List[Segment]:
    """Drop point segments swallowed by an adjacent full segment.

    Keeps the input order, so pieces of :func:`_combined` stay sorted.
    """
    full = [s for s in segments if s[1] > s[0]]
    if len(full) == len(segments):
        return segments
    kept: List[Segment] = []
    for s in segments:
        x = s[0]
        if s[1] > x or not any(f[0] - ATOL <= x <= f[1] + ATOL for f in full):
            kept.append(s)
    return kept


def _line_leq_region(
    a: Segment, b: Segment, lo: float, hi: float, atol: float
) -> List[Interval]:
    """Intervals within ``[lo, hi]`` where ``a(x) <= b(x) + atol``."""
    da_lo = a.value(lo) - b.value(lo) - atol
    da_hi = a.value(hi) - b.value(hi) - atol
    if da_lo <= 0.0 and da_hi <= 0.0:
        return [Interval(lo, hi)]
    if da_lo > 0.0 and da_hi > 0.0:
        return []
    ds = a.slope - b.slope
    if abs(ds) <= _EPS:
        # (numerically) parallel lines whose endpoint differences straddle
        # zero only by floating-point noise; classify by the midpoint
        mid = 0.5 * (lo + hi)
        if a.value(mid) - b.value(mid) <= atol:
            return [Interval(lo, hi)]
        return []
    # exactly one sign change: solve (a - b)(x) = atol
    x = (b.intercept + atol - a.intercept) / ds
    x = min(max(x, lo), hi)
    if da_lo <= 0.0:
        return [Interval(lo, x)]
    return [Interval(x, hi)]


def _chord_upper(a: Segment, b: Segment) -> Segment:
    """One segment covering two touching segments from above.

    The chord through the envelope's endpoint values, lifted by the
    largest shortfall at any of the four segment endpoints — a line is
    maximally below a piecewise-linear function at a breakpoint, so
    checking endpoints suffices for pointwise dominance.
    """
    lo, hi = a.lo, b.hi
    y_lo = a.value(lo)
    y_hi = b.value(hi)
    if hi > lo:
        slope = (y_hi - y_lo) / (hi - lo)
    else:
        slope = 0.0
        y_lo = max(y_lo, y_hi)
    intercept = y_lo - slope * lo
    lift = 0.0
    for seg in (a, b):
        for x in (seg.lo, seg.hi):
            short = seg.value(x) - (intercept + slope * x)
            if short > lift:
                lift = short
    return Segment(lo, hi, intercept + lift, slope)


def _merge_area(a: Segment, b: Segment, merged: Segment) -> float:
    """Area added between ``merged`` and the two segments it replaces.

    Both sides are linear on each original segment's domain, so the
    trapezoid rule on segment endpoints is exact.
    """
    total = 0.0
    for seg in (a, b):
        gap_lo = merged.value(seg.lo) - seg.value(seg.lo)
        gap_hi = merged.value(seg.hi) - seg.value(seg.hi)
        total += 0.5 * (gap_lo + gap_hi) * (seg.hi - seg.lo)
    return total


def maximum_all(functions: Sequence[PWL]) -> PWL:
    """Piece-wise maximum of many PWLs (balanced reduction).

    Pairwise reduction keeps intermediate segment counts small compared to a
    left fold when the inputs have many breakpoints.
    """
    items = [f for f in functions if not f.is_empty]
    if not items:
        raise ValueError("maximum_all needs at least one non-empty PWL")
    while len(items) > 1:
        nxt = []
        for k in range(0, len(items) - 1, 2):
            nxt.append(items[k].maximum(items[k + 1]))
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def max_segment_count(functions: Iterable[Optional["PWL"]]) -> int:
    """The widest segment list among ``functions`` (``None`` entries skipped).

    The paper leans on PWL representations staying *small* in practice
    (Sec. VIII observes ~4 segments on its workloads); this is the quantity
    the MSRI statistics and the ``msri.pwl_segments`` observability
    histogram report per node.
    """
    widest = 0
    for f in functions:
        if f is not None and f.num_segments > widest:
            widest = f.num_segments
    return widest
