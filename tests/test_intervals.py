"""Unit and property tests for the closed-interval algebra."""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import ATOL, Interval, IntervalSet, union_all


class TestInterval:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)

    def test_point_interval_allowed(self):
        iv = Interval(3.0, 3.0)
        assert iv.length == 0.0
        assert iv.contains(3.0)

    def test_length_and_midpoint(self):
        iv = Interval(1.0, 5.0)
        assert iv.length == 4.0
        assert iv.midpoint == 3.0

    def test_midpoint_infinite_ends(self):
        assert Interval(0.0, math.inf).midpoint == 1.0
        assert Interval(-math.inf, 0.0).midpoint == -1.0
        assert Interval(-math.inf, math.inf).midpoint == 0.0

    def test_contains_with_tolerance(self):
        iv = Interval(0.0, 1.0)
        assert not iv.contains(1.0000001)
        assert iv.contains(1.0000001, atol=1e-6)

    def test_overlaps(self):
        assert Interval(0, 2).overlaps(Interval(1, 3))
        assert Interval(0, 1).overlaps(Interval(1, 2))  # touching counts
        assert not Interval(0, 1).overlaps(Interval(2, 3))

    def test_intersect(self):
        assert Interval(0, 2).intersect(Interval(1, 3)) == Interval(1, 2)
        assert Interval(0, 1).intersect(Interval(2, 3)) is None
        assert Interval(0, 1).intersect(Interval(1, 2)) == Interval(1, 1)

    def test_shift(self):
        assert Interval(0, 1).shift(2.5) == Interval(2.5, 3.5)


class TestIntervalSetConstruction:
    def test_empty(self):
        s = IntervalSet.empty()
        assert s.is_empty
        assert not s
        assert len(s) == 0
        assert s.measure == 0.0

    def test_single(self):
        s = IntervalSet.single(0.0, 2.0)
        assert s.measure == 2.0
        assert s.lo == 0.0 and s.hi == 2.0

    def test_coalesces_overlaps(self):
        s = IntervalSet.from_pairs([(0, 2), (1, 3), (5, 6)])
        assert s.intervals == (Interval(0, 3), Interval(5, 6))

    def test_coalesces_touching(self):
        s = IntervalSet.from_pairs([(0, 1), (1, 2)])
        assert s.intervals == (Interval(0, 2),)

    def test_canonical_equality(self):
        a = IntervalSet.from_pairs([(0, 1), (1, 2), (4, 5)])
        b = IntervalSet.from_pairs([(4, 5), (0, 2)])
        assert a == b
        assert hash(a) == hash(b)

    def test_empty_set_has_no_bounds(self):
        with pytest.raises(ValueError):
            _ = IntervalSet.empty().lo
        with pytest.raises(ValueError):
            _ = IntervalSet.empty().hi


class TestIntervalSetAlgebra:
    def test_union(self):
        a = IntervalSet.single(0, 1)
        b = IntervalSet.single(2, 3)
        assert a.union(b).intervals == (Interval(0, 1), Interval(2, 3))

    def test_union_merges(self):
        a = IntervalSet.single(0, 2)
        b = IntervalSet.single(1, 3)
        assert a.union(b) == IntervalSet.single(0, 3)

    def test_intersect_basic(self):
        a = IntervalSet.from_pairs([(0, 2), (4, 6)])
        b = IntervalSet.from_pairs([(1, 5)])
        assert a.intersect(b) == IntervalSet.from_pairs([(1, 2), (4, 5)])

    def test_intersect_disjoint(self):
        a = IntervalSet.single(0, 1)
        b = IntervalSet.single(2, 3)
        assert a.intersect(b).is_empty

    def test_intersect_with_empty(self):
        a = IntervalSet.single(0, 1)
        assert a.intersect(IntervalSet.empty()).is_empty

    def test_difference_middle_cut(self):
        a = IntervalSet.single(0, 10)
        b = IntervalSet.single(3, 7)
        d = a.difference(b)
        assert d == IntervalSet.from_pairs([(0, 3), (7, 10)])

    def test_difference_full_cover(self):
        a = IntervalSet.single(2, 3)
        b = IntervalSet.single(0, 5)
        assert a.difference(b).is_empty

    def test_difference_multiple_cuts(self):
        a = IntervalSet.single(0, 10)
        b = IntervalSet.from_pairs([(1, 2), (4, 5), (8, 12)])
        d = a.difference(b)
        assert d == IntervalSet.from_pairs([(0, 1), (2, 4), (5, 8)])

    def test_difference_with_empty(self):
        a = IntervalSet.single(0, 1)
        assert a.difference(IntervalSet.empty()) == a
        assert IntervalSet.empty().difference(a).is_empty

    def test_shift(self):
        a = IntervalSet.from_pairs([(0, 1), (3, 4)])
        assert a.shift(1.0) == IntervalSet.from_pairs([(1, 2), (4, 5)])

    def test_clamp(self):
        a = IntervalSet.from_pairs([(0, 2), (5, 9)])
        assert a.clamp(1, 6) == IntervalSet.from_pairs([(1, 2), (5, 6)])
        assert a.clamp(10, 3).is_empty

    def test_contains(self):
        a = IntervalSet.from_pairs([(0, 1), (2, 3)])
        assert a.contains(0.5)
        assert a.contains(2.0)
        assert not a.contains(1.5)

    def test_sample_points_cover_each_interval(self):
        a = IntervalSet.from_pairs([(0, 1), (2, 2), (3, 5)])
        pts = a.sample_points(per_interval=3)
        assert all(a.contains(p) for p in pts)
        for iv in a:
            assert any(iv.contains(p) for p in pts)

    def test_union_all(self):
        sets = [IntervalSet.single(i, i + 1.5) for i in range(3)]
        assert union_all(sets) == IntervalSet.single(0, 3.5)

    def test_approx_equal(self):
        a = IntervalSet.single(0.0, 1.0)
        b = IntervalSet.single(1e-12, 1.0 - 1e-12)
        assert a.approx_equal(b)
        assert not a.approx_equal(IntervalSet.single(0.0, 2.0))


# -- property-based tests ----------------------------------------------------

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


@st.composite
def interval_sets(draw, max_intervals=5):
    n = draw(st.integers(min_value=0, max_value=max_intervals))
    pairs = []
    for _ in range(n):
        a = draw(finite)
        b = draw(finite)
        pairs.append((min(a, b), max(a, b)))
    return IntervalSet.from_pairs(pairs)


@given(interval_sets(), interval_sets())
@settings(max_examples=200)
def test_union_is_superset(a, b):
    for s in (a, b):
        for iv in s:
            assert a.union(b).contains(iv.midpoint, atol=1e-9)


@given(interval_sets(), interval_sets())
@settings(max_examples=200)
def test_intersection_subset_of_both(a, b):
    inter = a.intersect(b)
    for iv in inter:
        m = iv.midpoint
        assert a.contains(m, atol=1e-9)
        assert b.contains(m, atol=1e-9)


@given(interval_sets(), interval_sets())
@settings(max_examples=200)
def test_difference_disjoint_from_subtrahend_interiors(a, b):
    d = a.difference(b)
    for iv in d:
        if iv.length > 1e-6:
            m = iv.midpoint
            assert a.contains(m, atol=1e-9)
            # interior points of the difference are not interior to b
            interior = any(c.lo + 1e-9 < m < c.hi - 1e-9 for c in b)
            assert not interior


@given(interval_sets(), interval_sets())
@settings(max_examples=200)
def test_demorgan_measure(a, b):
    # |A| = |A \ B| + |A n B|
    assert a.measure == pytest.approx(
        a.difference(b).measure + a.intersect(b).measure, abs=1e-6
    )


@given(interval_sets())
@settings(max_examples=100)
def test_difference_self_is_empty(a):
    assert a.difference(a).is_empty


@given(interval_sets(), finite)
@settings(max_examples=100)
def test_shift_preserves_measure(a, delta):
    assert a.shift(delta).measure == pytest.approx(a.measure, rel=1e-9, abs=1e-9)


# -- fast paths against the reference composition -----------------------------
#
# Coalescing skips its sort on ordered input, the set operations build
# canonical tuples directly, and ``shift_clamp`` runs shift -> intersect ->
# clamp without intermediate sets.  Each must give exactly the intervals of
# the plain algorithm below, compared through ``float.hex``.


def _signed(x):
    """Order key telling ``-0.0`` below ``0.0``."""
    return (x, math.copysign(1.0, x))


def _ref_coalesce(intervals, atol=ATOL):
    """Stable sort by ``(lo, hi)``, then merge overlapping/touching runs.

    A run's ``lo``/``hi`` are its members' sign-aware min/max, so tied
    zero endpoints do not depend on input order.
    """
    merged = []
    for iv in sorted(intervals, key=lambda iv: (iv.lo, iv.hi)):
        if merged and iv.lo <= merged[-1].hi + atol:
            last = merged[-1]
            merged[-1] = Interval(
                min(last.lo, iv.lo, key=_signed), max(last.hi, iv.hi, key=_signed)
            )
        else:
            merged.append(iv)
    return tuple(merged)


def _ref_intersect(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
        if lo <= hi:
            out.append(Interval(lo, hi))
        if a[i].hi < b[j].hi:
            i += 1
        else:
            j += 1
    return _ref_coalesce(out)


def _ref_shift(ivs, delta):
    return _ref_coalesce(Interval(iv.lo + delta, iv.hi + delta) for iv in ivs)


def _bits(ivs):
    return [(float(iv.lo).hex(), float(iv.hi).hex()) for iv in ivs]


#: Gaps straddling the coalescing tolerance, so rounding decides merges.
_gap = st.sampled_from([0.0, 5e-13, 1e-12, 1.0000001e-12, 2e-12, 1e-6, 1.0])


@st.composite
def interval_lists(draw, max_intervals=6):
    """Intervals in ``(lo, hi)`` order separated by near-tolerance gaps."""
    n = draw(st.integers(min_value=0, max_value=max_intervals))
    x = draw(st.floats(min_value=-100.0, max_value=100.0))
    out = []
    for _ in range(n):
        length = draw(st.sampled_from([0.0, 1e-12, 0.5, 3.0]))
        out.append(Interval(x, x + length))
        x = x + length + draw(_gap)
    return out


@given(interval_lists(), st.randoms(use_true_random=False))
@settings(max_examples=300)
def test_construction_ignores_input_order(ivs, rnd):
    shuffled = list(ivs)
    rnd.shuffle(shuffled)
    expected = _bits(_ref_coalesce(ivs))
    assert _bits(IntervalSet(ivs).intervals) == expected
    assert _bits(IntervalSet(shuffled).intervals) == expected
    assert all(type(iv) is Interval for iv in IntervalSet(shuffled))


@pytest.mark.parametrize("zero_first", [False, True])
def test_tied_zero_endpoints_pick_by_sign(zero_first):
    """``[[-0, 0], [0, 0], [0, 0]]`` in either order: ``lo`` is ``-0.0``."""
    ivs = [Interval(-0.0, 0.0), Interval(0.0, 0.0), Interval(0.0, 0.0)]
    if zero_first:
        ivs.reverse()
    assert _bits(IntervalSet(ivs).intervals) == [("-0x0.0p+0", "0x0.0p+0")]
    ends = [Interval(-1.0, -0.0), Interval(-1.0, 0.0)]
    if zero_first:
        ends.reverse()
    assert _bits(IntervalSet(ends).intervals) == [((-1.0).hex(), "0x0.0p+0")]


@given(interval_lists(), interval_lists(), finite, finite,
       st.floats(-10.0, 10.0), st.floats(0.0, 300.0), st.booleans())
@settings(max_examples=300)
def test_shift_clamp_matches_chain(a, b, da, db, lo, width, meet):
    sa, sb = IntervalSet(a), IntervalSet(b)
    hi = lo + width
    chain = sa.shift(da)
    ref = _ref_shift(sa.intervals, da)
    if meet:
        chain = chain.intersect(sb.shift(db))
        ref = _ref_intersect(ref, _ref_shift(sb.intervals, db))
    chain = chain.clamp(lo, hi)
    ref = _ref_intersect(ref, (Interval(lo, hi),))
    fused = sa.shift_clamp(da, lo, hi, meet=(sb, db) if meet else None)
    assert _bits(fused.intervals) == _bits(chain.intervals) == _bits(ref)


@given(interval_lists(), interval_lists())
@settings(max_examples=300)
def test_intersect_matches_reference(a, b):
    sa, sb = IntervalSet(a), IntervalSet(b)
    assert _bits(sa.intersect(sb).intervals) == _bits(
        _ref_intersect(sa.intervals, sb.intervals)
    )


# -- Interval value semantics ---------------------------------------------------


class TestIntervalSemantics:
    @pytest.mark.parametrize(
        "lo, hi, message",
        [
            (2.0, 1.0, "empty interval: lo=2.0 > hi=1.0"),
            (math.nan, 1.0, "interval endpoints may not be NaN"),
            (0.0, math.nan, "interval endpoints may not be NaN"),
            (math.inf, 0.0, "empty interval: lo=inf > hi=0.0"),
        ],
    )
    def test_rejects_with_message(self, lo, hi, message):
        with pytest.raises(ValueError) as err:
            Interval(lo, hi)
        assert str(err.value) == message

    def test_infinite_endpoints_allowed(self):
        assert Interval(-math.inf, math.inf).length == math.inf

    def test_immutable(self):
        iv = Interval(0.0, 1.0)
        for field in ("lo", "hi"):
            with pytest.raises(AttributeError):
                setattr(iv, field, 5.0)
        with pytest.raises(AttributeError):
            iv.extra = 1.0

    def test_equality_and_hash(self):
        assert Interval(0.0, 1.0) == Interval(0.0, 1.0)
        assert hash(Interval(0.0, 1.0)) == hash(Interval(0.0, 1.0))
        assert Interval(0.0, 1.0) != Interval(0.0, 2.0)
        assert len({Interval(0, 1), Interval(0, 1), Interval(1, 2)}) == 2

    def test_ordering_is_by_lo_then_hi(self):
        ivs = [Interval(1, 3), Interval(0, 5), Interval(1, 2), Interval(0, 0)]
        assert sorted(ivs) == [Interval(0, 0), Interval(0, 5), Interval(1, 2), Interval(1, 3)]
        assert Interval(0, 1) < Interval(0, 2) < Interval(1, 1)
        assert Interval(0, 1) <= Interval(0, 1)

    def test_repr(self):
        assert repr(Interval(0.5, 2.0)) == "[0.5, 2]"
        assert repr(IntervalSet.from_pairs([(0, 1), (2, 3)])) == "IntervalSet([0, 1] u [2, 3])"

    def test_pickle_round_trip(self):
        iv = Interval(0.0, 1.0)
        out = pickle.loads(pickle.dumps(iv))
        assert out == iv and type(out) is Interval
