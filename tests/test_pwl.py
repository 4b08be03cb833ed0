"""Unit and property tests for PWL functions and the paper's Eq. (3) primitives."""

import copy
import math
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import pwl as pwl_module
from repro.core.intervals import ATOL, IntervalSet
from repro.core.pwl import PWL, Segment, maximum_all


class TestSegment:
    def test_value(self):
        s = Segment(0.0, 10.0, 2.0, 3.0)
        assert s.value(0.0) == 2.0
        assert s.value(2.0) == 8.0

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            Segment(5.0, 4.0, 0.0, 0.0)

    def test_rejects_infinite_domain(self):
        with pytest.raises(ValueError):
            Segment(0.0, math.inf, 0.0, 0.0)

    def test_rejects_nonfinite_coeffs(self):
        with pytest.raises(ValueError):
            Segment(0.0, 1.0, math.inf, 0.0)

    def test_same_line(self):
        a = Segment(0, 1, 2.0, 3.0)
        b = Segment(1, 2, 2.0, 3.0)
        c = Segment(1, 2, 2.5, 3.0)
        assert a.same_line(b)
        assert not a.same_line(c)


class TestConstruction:
    def test_constant(self):
        f = PWL.constant(5.0, 0.0, 10.0)
        assert f.evaluate(0.0) == 5.0
        assert f.evaluate(10.0) == 5.0
        assert f.num_segments == 1

    def test_linear(self):
        f = PWL.linear(1.0, 2.0, 0.0, 4.0)
        assert f.evaluate(3.0) == 7.0

    def test_merges_collinear(self):
        f = PWL([Segment(0, 1, 1.0, 2.0), Segment(1, 2, 1.0, 2.0)])
        assert f.num_segments == 1
        assert f.segments[0].hi == 2.0

    def test_rejects_overlapping(self):
        with pytest.raises(ValueError):
            PWL([Segment(0, 2, 0, 0), Segment(1, 3, 1, 0)])

    def test_from_breakpoints(self):
        f = PWL.from_breakpoints([0, 1, 3], [0, 2, 2])
        assert f.evaluate(0.5) == pytest.approx(1.0)
        assert f.evaluate(2.0) == pytest.approx(2.0)
        assert f.num_segments == 2

    def test_from_breakpoints_rejects_short(self):
        with pytest.raises(ValueError):
            PWL.from_breakpoints([0], [1])

    def test_from_breakpoints_rejects_nonincreasing(self):
        with pytest.raises(ValueError):
            PWL.from_breakpoints([0, 0], [1, 2])

    def test_empty(self):
        f = PWL([])
        assert f.is_empty
        with pytest.raises(ValueError):
            f.evaluate(0.0)


class TestEvaluation:
    def test_outside_domain_raises(self):
        f = PWL.constant(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            f.evaluate(2.0)

    def test_evaluate_or(self):
        f = PWL.constant(1.0, 0.0, 1.0)
        assert f.evaluate_or(2.0, default=-1.0) == -1.0
        assert f.evaluate_or(0.5, default=-1.0) == 1.0

    def test_holey_domain(self):
        f = PWL([Segment(0, 1, 0, 1), Segment(2, 3, 5, 0)])
        assert f.defined_at(0.5)
        assert not f.defined_at(1.5)
        assert f.evaluate(2.5) == 5.0
        assert f.domain() == IntervalSet.from_pairs([(0, 1), (2, 3)])

    def test_callable(self):
        f = PWL.linear(0.0, 2.0, 0.0, 1.0)
        assert f(0.5) == 1.0

    def test_min_max_value(self):
        f = PWL.from_breakpoints([0, 1, 2], [3, 1, 4])
        assert f.min_value() == (1.0, 1.0)
        assert f.max_value() == (2.0, 4.0)


class TestPrimitives:
    def test_add_scalar(self):
        f = PWL.linear(1.0, 2.0, 0.0, 5.0).add_scalar(10.0)
        assert f.evaluate(1.0) == 13.0

    def test_add_linear(self):
        f = PWL.linear(1.0, 2.0, 0.0, 5.0).add_linear(3.0, 4.0)
        # (1 + 2x) + (3 + 4x) = 4 + 6x
        assert f.evaluate(2.0) == pytest.approx(16.0)

    def test_shift_value_identity(self):
        f = PWL.from_breakpoints([0, 2, 5], [0, 4, 1])
        g = f.shift(1.0)
        for x in [0.0, 0.5, 1.0, 3.0, 4.0]:
            assert g.evaluate(x) == pytest.approx(f.evaluate(x + 1.0))

    def test_shift_clips_negative_domain(self):
        f = PWL.constant(1.0, 0.0, 2.0)
        g = f.shift(1.5)
        assert g.domain() == IntervalSet.single(0.0, 0.5)

    def test_shift_drops_vanished_segments(self):
        f = PWL.constant(1.0, 0.0, 1.0)
        assert f.shift(2.0).is_empty

    def test_restrict(self):
        f = PWL.linear(0.0, 1.0, 0.0, 10.0)
        g = f.restrict(IntervalSet.from_pairs([(1, 2), (5, 7)]))
        assert g.domain() == IntervalSet.from_pairs([(1, 2), (5, 7)])
        assert g.evaluate(6.0) == 6.0

    def test_restrict_to_empty(self):
        f = PWL.constant(0.0, 0.0, 1.0)
        assert f.restrict(IntervalSet.empty()).is_empty


class TestMaximum:
    def test_crossing_lines(self):
        # The Fig. 3 scenario: two arrival lines with slopes 7 and 12.
        # arr_u = 100 + 12x, arr_w = 130 + 7x cross at x = 6.
        f = PWL.linear(100.0, 12.0, 0.0, 20.0)
        g = PWL.linear(130.0, 7.0, 0.0, 20.0)
        m = f.maximum(g)
        assert m.num_segments == 2
        assert m.evaluate(0.0) == 130.0  # far source dominates at low c_E
        assert m.evaluate(10.0) == 220.0  # near-but-slow dominates at high c_E
        assert m.evaluate(6.0) == pytest.approx(172.0)

    def test_parallel_lines(self):
        f = PWL.linear(1.0, 2.0, 0.0, 5.0)
        g = PWL.linear(3.0, 2.0, 0.0, 5.0)
        assert f.maximum(g).approx_equal(g)

    def test_identical(self):
        f = PWL.linear(1.0, 2.0, 0.0, 5.0)
        assert f.maximum(f).approx_equal(f)

    def test_domain_intersection(self):
        f = PWL.constant(1.0, 0.0, 4.0)
        g = PWL.constant(2.0, 2.0, 6.0)
        m = f.maximum(g)
        assert m.domain() == IntervalSet.single(2.0, 4.0)
        assert m.evaluate(3.0) == 2.0

    def test_disjoint_domains_empty(self):
        f = PWL.constant(1.0, 0.0, 1.0)
        g = PWL.constant(2.0, 2.0, 3.0)
        assert f.maximum(g).is_empty

    def test_minimum(self):
        f = PWL.linear(0.0, 1.0, 0.0, 10.0)
        g = PWL.constant(5.0, 0.0, 10.0)
        m = f.minimum(g)
        assert m.evaluate(2.0) == 2.0
        assert m.evaluate(8.0) == 5.0

    def test_point_domain_overlap(self):
        f = PWL.constant(1.0, 0.0, 2.0)
        g = PWL.constant(3.0, 2.0, 4.0)
        m = f.maximum(g)
        assert m.domain() == IntervalSet.single(2.0, 2.0)
        assert m.evaluate(2.0) == 3.0

    def test_maximum_all(self):
        fs = [PWL.linear(float(10 - i), float(i), 0.0, 10.0) for i in range(4)]
        m = maximum_all(fs)
        for x in [0.0, 1.0, 2.5, 7.0, 10.0]:
            assert m.evaluate(x) == pytest.approx(
                max(f.evaluate(x) for f in fs)
            )

    def test_maximum_all_skips_empty(self):
        fs = [PWL([]), PWL.constant(1.0, 0.0, 1.0)]
        assert maximum_all(fs).approx_equal(PWL.constant(1.0, 0.0, 1.0))

    def test_maximum_all_empty_raises(self):
        with pytest.raises(ValueError):
            maximum_all([PWL([])])


class TestRegions:
    def test_region_leq_simple(self):
        f = PWL.linear(0.0, 1.0, 0.0, 10.0)  # x
        g = PWL.constant(5.0, 0.0, 10.0)  # 5
        r = f.region_leq(g)
        assert r.approx_equal(IntervalSet.single(0.0, 5.0))

    def test_region_leq_everywhere(self):
        f = PWL.constant(0.0, 0.0, 10.0)
        g = PWL.constant(5.0, 0.0, 10.0)
        assert f.region_leq(g) == IntervalSet.single(0.0, 10.0)

    def test_region_leq_nowhere(self):
        f = PWL.constant(9.0, 0.0, 10.0)
        g = PWL.constant(5.0, 0.0, 10.0)
        assert f.region_leq(g).is_empty

    def test_region_leq_restricted_to_common_domain(self):
        f = PWL.constant(0.0, 0.0, 3.0)
        g = PWL.constant(5.0, 2.0, 10.0)
        assert f.region_leq(g) == IntervalSet.single(2.0, 3.0)

    def test_region_lt_excludes_ties(self):
        f = PWL.constant(5.0, 0.0, 10.0)
        g = PWL.constant(5.0, 0.0, 10.0)
        assert f.region_lt(g).is_empty
        assert f.region_leq(g) == IntervalSet.single(0.0, 10.0)

    def test_region_lt_crossing(self):
        f = PWL.linear(0.0, 1.0, 0.0, 10.0)
        g = PWL.constant(5.0, 0.0, 10.0)
        r = f.region_lt(g)
        assert r.approx_equal(IntervalSet.single(0.0, 5.0), atol=1e-6)


class TestApproxEqual:
    def test_same_function_different_segmentation(self):
        f = PWL.linear(0.0, 1.0, 0.0, 10.0)
        g = PWL([Segment(0, 4, 0.0, 1.0), Segment(4, 10, 0.0, 1.0)])
        # canonicalization merges g into one segment, so exact equality holds
        assert f == g
        assert f.approx_equal(g)

    def test_different_functions(self):
        f = PWL.linear(0.0, 1.0, 0.0, 10.0)
        g = PWL.linear(0.1, 1.0, 0.0, 10.0)
        assert not f.approx_equal(g, atol=1e-3)


# -- property-based tests ----------------------------------------------------

coeff = st.floats(min_value=-50, max_value=50, allow_nan=False)


@st.composite
def pwls(draw, max_pieces=4, x_max=20.0):
    """Random continuous PWL on [0, x_max] built from breakpoints."""
    n = draw(st.integers(min_value=2, max_value=max_pieces + 1))
    xs = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.01, max_value=x_max - 0.01),
                min_size=n - 2,
                max_size=n - 2,
                unique=True,
            )
        )
    )
    xs = [0.0] + xs + [x_max]
    ys = [draw(coeff) for _ in xs]
    return PWL.from_breakpoints(xs, ys)


def _grid(f, g, k=41):
    lo = max(f.domain().lo, g.domain().lo)
    hi = min(f.domain().hi, g.domain().hi)
    return [lo + (hi - lo) * i / (k - 1) for i in range(k)]


@given(pwls(), pwls())
@settings(max_examples=150)
def test_maximum_matches_pointwise(f, g):
    m = f.maximum(g)
    for x in _grid(f, g):
        assert m.evaluate(x) == pytest.approx(
            max(f.evaluate(x), g.evaluate(x)), abs=1e-6
        )


@given(pwls(), pwls())
@settings(max_examples=150)
def test_minimum_matches_pointwise(f, g):
    m = f.minimum(g)
    for x in _grid(f, g):
        assert m.evaluate(x) == pytest.approx(
            min(f.evaluate(x), g.evaluate(x)), abs=1e-6
        )


@given(pwls(), coeff, coeff)
@settings(max_examples=100)
def test_add_linear_pointwise(f, a, b):
    h = f.add_linear(a, b)
    for x in [0.0, 5.0, 10.0, 20.0]:
        assert h.evaluate(x) == pytest.approx(f.evaluate(x) + a + b * x, abs=1e-6)


@given(pwls(), st.floats(min_value=0.0, max_value=15.0))
@settings(max_examples=100)
def test_shift_pointwise(f, c):
    g = f.shift(c)
    hi = f.domain().hi - c
    if hi < 0:
        assert g.is_empty
        return
    for i in range(11):
        x = hi * i / 10.0
        assert g.evaluate(x) == pytest.approx(f.evaluate(x + c), abs=1e-6)


@given(pwls(), pwls())
@settings(max_examples=150)
def test_region_leq_is_sound(f, g):
    r = f.region_leq(g)
    for x in _grid(f, g):
        inside = r.contains(x, atol=1e-7)
        holds = f.evaluate(x) <= g.evaluate(x) + 1e-6
        if inside:
            assert holds
    # completeness at clearly-interior points
    for iv in r:
        if iv.length > 1e-3:
            x = iv.midpoint
            assert f.evaluate(x) <= g.evaluate(x) + 1e-6


@given(pwls(), pwls(), pwls())
@settings(max_examples=75)
def test_maximum_associative_pointwise(f, g, h):
    a = f.maximum(g).maximum(h)
    b = f.maximum(g.maximum(h))
    for x in _grid(a, b):
        assert a.evaluate(x) == pytest.approx(b.evaluate(x), abs=1e-6)


# -- fast paths against the reference composition -----------------------------
#
# PWL construction skips its sort on ordered input, ``restrict`` returns
# ``self`` when one region interval covers the function, and ``shift_into``
# runs shift -> add_linear -> restrict without intermediate functions.
# Each must give exactly the segments of the plain algorithm below:
# compared through ``float.hex`` so even a signed zero cannot differ.


def _ref_canonical(segments):
    """Stable sort by domain, reject overlaps, merge touching collinear runs."""
    segs = sorted(segments, key=lambda s: (s.lo, s.hi))
    for a, b in zip(segs, segs[1:]):
        if b.lo < a.hi - ATOL:
            raise ValueError(f"overlapping segment domains: {a} and {b}")
    merged = []
    for seg in segs:
        if merged and abs(seg.lo - merged[-1].hi) <= ATOL and merged[-1].same_line(seg):
            prev = merged[-1]
            merged[-1] = Segment(prev.lo, seg.hi, prev.intercept, prev.slope)
        else:
            merged.append(seg)
    return tuple(merged)


def _ref_shift(segs, c):
    out = []
    for s in segs:
        lo, hi = s.lo - c, s.hi - c
        if hi < 0.0:
            continue
        out.append(Segment(max(lo, 0.0), hi, s.intercept + s.slope * c, s.slope))
    return _ref_canonical(out)


def _ref_add_linear(segs, a, b):
    """``b`` None adds no slope (``add_scalar``), so a ``-0.0`` slope stays."""
    return _ref_canonical(
        Segment(s.lo, s.hi, s.intercept + a, s.slope if b is None else s.slope + b)
        for s in segs
    )


def _ref_restrict(segs, region):
    out = []
    for s in segs:
        for iv in region:
            lo, hi = max(s.lo, iv.lo), min(s.hi, iv.hi)
            if lo <= hi:
                out.append(Segment(lo, hi, s.intercept, s.slope))
    return _ref_canonical(out)


def _ref_combine(f, g, max_of):
    """Piece-wise max/min: cut each overlap at the crossing, pick by midpoint."""
    out = []
    i = j = 0
    fs, gs = f.segments, g.segments
    while i < len(fs) and j < len(gs):
        sa, sb = fs[i], gs[j]
        lo, hi = max(sa.lo, sb.lo), min(sa.hi, sb.hi)
        if lo <= hi:
            cuts = [lo, hi]
            ds = sa.slope - sb.slope
            if abs(ds) > 1e-9:
                x = (sb.intercept - sa.intercept) / ds
                if lo + 1e-9 < x < hi - 1e-9:
                    cuts = [lo, x, hi]
            for a, b in zip(cuts, cuts[1:]):
                mid = 0.5 * (a + b)
                ya, yb = sa.value(mid), sb.value(mid)
                chosen = sa if (ya >= yb if max_of else ya <= yb) else sb
                out.append(Segment(a, b, chosen.intercept, chosen.slope))
        if sa.hi < sb.hi:
            i += 1
        else:
            j += 1
    full = [s for s in out if s.hi > s.lo]
    points = [
        p for p in out
        if p.hi == p.lo and not any(s.lo - ATOL <= p.lo <= s.hi + ATOL for s in full)
    ]
    return _ref_canonical(full + points)


def _bits(segs):
    return [tuple(float(v).hex() for v in s) for s in segs]


#: Coefficient magnitudes from unit scale up to the large slopes where the
#: collinear merge's relative tolerance decides.
_scale = st.sampled_from([1.0, 1e3, 1e6, 1e9])
#: Relative perturbations straddling the merge tolerance (1e-9).
_nudge = st.sampled_from([0.0, 0.0, 3e-10, 9e-10, 1e-9, 1.1e-9, 2e-9, -9e-10, 1e-3])


@st.composite
def segment_lists(draw, max_segments=6):
    """Ordered, non-overlapping segments on [0, 100]: contiguous runs of
    near-collinear lines, with optional holes and point segments."""
    n = draw(st.integers(min_value=1, max_value=max_segments))
    xs = sorted(draw(st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=n + 1, max_size=n + 1,
        unique=True,
    )))
    base_ic = draw(st.floats(min_value=-1.0, max_value=1.0)) * draw(_scale)
    base_sl = draw(st.floats(min_value=-1.0, max_value=1.0)) * draw(_scale)
    segs = []
    for lo, hi in zip(xs, xs[1:]):
        kind = draw(st.sampled_from(["seg", "seg", "seg", "hole", "point"]))
        if kind == "hole":
            continue
        if kind == "point":
            hi = lo
        ic = base_ic * (1.0 + draw(_nudge))
        sl = base_sl * (1.0 + draw(_nudge))
        segs.append(Segment(lo, hi, ic, sl))
    return segs


@st.composite
def regions(draw):
    """Interval sets on [-10, 110]: sometimes one covering interval."""
    if draw(st.booleans()):
        return IntervalSet.single(draw(st.floats(-10.0, 0.0)), draw(st.floats(100.0, 110.0)))
    ends = sorted(draw(st.lists(st.floats(-10.0, 110.0), min_size=2, max_size=6)))
    pairs = list(zip(ends[::2], ends[1::2]))
    return IntervalSet.from_pairs(pairs)


@given(segment_lists(), st.randoms(use_true_random=False))
@settings(max_examples=300)
def test_construction_ignores_input_order(segs, rnd):
    shuffled = list(segs)
    rnd.shuffle(shuffled)
    expected = _bits(_ref_canonical(segs))
    assert _bits(PWL(segs).segments) == expected
    assert _bits(PWL(shuffled).segments) == expected
    assert all(type(s) is Segment for s in PWL(shuffled).segments)


@given(segment_lists(), st.floats(min_value=0.0, max_value=60.0), regions(),
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), _scale, st.booleans())
@settings(max_examples=300)
def test_shift_into_matches_chain(segs, c, region, a, b, scale, lift):
    f = PWL(segs)
    linear = (a * scale, b * scale) if lift else None
    fused = f.shift_into(c, region, linear)
    chain = f.shift(c)
    ref = _ref_shift(f.segments, c)
    if linear is not None:
        chain = chain.add_linear(*linear)
        ref = _ref_add_linear(ref, *linear)
    chain = chain.restrict(region)
    ref = _ref_restrict(ref, region)
    assert _bits(fused.segments) == _bits(chain.segments) == _bits(ref)


@given(segment_lists(), st.floats(-1.0, 1.0), _scale)
@settings(max_examples=200)
def test_scalar_and_linear_adds_match_reference(segs, a, scale):
    f = PWL(segs)
    assert _bits(f.add_linear(a * scale, -a).segments) == _bits(
        _ref_add_linear(f.segments, a * scale, -a)
    )
    assert _bits(f.add_scalar(a * scale).segments) == _bits(_ref_canonical(
        Segment(s.lo, s.hi, s.intercept + a * scale, s.slope) for s in f.segments
    ))


#: Coefficients with both signed zeros drawn often.
_coefficient = st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0)


@st.composite
def one_segments(draw):
    lo, hi = sorted(draw(st.lists(st.floats(0.0, 100.0), min_size=2, max_size=2)))
    scale = draw(_scale)
    return Segment(lo, hi, draw(_coefficient) * scale, draw(_coefficient) * scale)


def _ref_shifted_into(segs, c, region, linear):
    ref = _ref_shift(segs, c)
    if linear is not None:
        ref = _ref_add_linear(ref, *linear)
    return _ref_restrict(ref, region)


@given(one_segments(), st.sampled_from([0.0, -0.0]) | st.floats(0.0, 120.0),
       st.floats(-10.0, 60.0), st.floats(0.0, 60.0),
       st.none() | st.tuples(_coefficient, _coefficient))
@settings(max_examples=400)
def test_one_segment_stages_match_general_chain(seg, c, iv_lo, width, linear):
    """The one-segment, one-interval closed forms give the stage chain's bits."""
    region = IntervalSet.single(iv_lo, iv_lo + width)
    got = pwl_module._shifted_into((seg,), c, region, linear)
    assert _bits(got) == _bits(_ref_shifted_into((seg,), c, region, linear))
    a, b = linear if linear is not None else (c, None)
    assert _bits(pwl_module._add_linear((seg,), a, b)) == _bits(
        _ref_add_linear((seg,), a, b)
    )


@pytest.mark.parametrize("seg, c, region, linear, want", [
    # signed zeros follow each stage's arithmetic: a shift by 0.0 keeps
    # -0.0 ends and intercepts, a shift by -0.0 turns them into 0.0
    (Segment(-0.0, 5.0, -0.0, -0.0), 0.0, (-0.0, 5.0), None,
     [(-0.0, 5.0, -0.0, -0.0)]),
    (Segment(-0.0, 5.0, -0.0, -0.0), -0.0, (-0.0, 9.0), (-0.0, -0.0),
     [(0.0, 5.0, 0.0, -0.0)]),
    # a region that clips the segment on both sides
    (Segment(0.0, 10.0, 1.0, 2.0), 1.0, (2.0, 5.0), (0.5, 1.0),
     [(2.0, 5.0, 3.5, 3.0)]),
    # an end tied with the region's keeps the segment's own signed zero
    (Segment(-0.0, 10.0, 1.0, 2.0), 0.0, (0.0, 5.0), None,
     [(-0.0, 5.0, 1.0, 2.0)]),
    # a region past the shifted segment leaves nothing
    (Segment(0.0, 10.0, 1.0, 2.0), 1.0, (9.5, 12.0), None, []),
    # hi - c < 0: the segment shifts off the domain entirely
    (Segment(0.0, 1.0, 1.0, 2.0), 2.0, (0.0, 5.0), (1.0, 1.0), []),
])
def test_one_segment_shifted_into_cases(seg, c, region, linear, want):
    region = IntervalSet.single(*region)
    got = pwl_module._shifted_into((seg,), c, region, linear)
    assert _bits(got) == _bits(want)
    assert _bits(got) == _bits(_ref_shifted_into((seg,), c, region, linear))


def test_one_segment_add_scalar_keeps_negative_zero_slope():
    seg = Segment(0.0, 1.0, 1.0, -0.0)
    assert _bits(pwl_module._add_linear((seg,), 2.0, None)) == _bits(
        [(0.0, 1.0, 3.0, -0.0)]
    )
    assert _bits(pwl_module._add_linear((seg,), 2.0, 0.0)) == _bits(
        [(0.0, 1.0, 3.0, 0.0)]
    )


@given(segment_lists(), regions())
@settings(max_examples=300)
def test_restrict_matches_general_loop(segs, region):
    f = PWL(segs)
    assert _bits(f.restrict(region).segments) == _bits(_ref_restrict(f.segments, region))


@given(segment_lists(), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
@settings(max_examples=200)
def test_restrict_noop_when_one_interval_covers(segs, below, above):
    assume(segs)
    f = PWL(segs)
    region = IntervalSet.from_pairs(
        [(-50.0, -40.0), (f.domain().lo - below, f.domain().hi + above), (150.0, 160.0)]
    )
    assert f.restrict(region) is f
    assert _bits(f.segments) == _bits(_ref_restrict(f.segments, region))


@given(segment_lists(), segment_lists())
@settings(max_examples=300)
def test_maximum_minimum_match_reference(segs_f, segs_g):
    f, g = PWL(segs_f), PWL(segs_g)
    assert _bits(f.maximum(g).segments) == _bits(_ref_combine(f, g, True))
    assert _bits(f.minimum(g).segments) == _bits(_ref_combine(f, g, False))


def _handed_to_pwl(monkeypatch, f, g):
    """The segment list ``f.maximum(g)`` passes to the PWL constructor."""
    seen = []
    canonicalize = pwl_module._canonicalize

    def spy(segments):
        seen.append(list(segments))
        return canonicalize(seen[-1])

    monkeypatch.setattr(pwl_module, "_canonicalize", spy)
    f.maximum(g)
    monkeypatch.undo()
    return seen[-1]


def test_combine_point_overlap_has_no_duplicate(monkeypatch):
    f = PWL([Segment(0, 1, 0, 1)])
    g = PWL([Segment(1, 2, 5, 0)])
    assert _handed_to_pwl(monkeypatch, f, g) == [Segment(1, 1, 5, 0)]
    assert f.maximum(g).segments == (Segment(1, 1, 5, 0),)


@given(segment_lists(), segment_lists())
@settings(max_examples=200)
def test_combine_hands_pwl_ordered_unique_segments(segs_f, segs_g):
    f, g = PWL(segs_f), PWL(segs_g)
    with pytest.MonkeyPatch.context() as mp:
        pieces = _handed_to_pwl(mp, f, g)
    assert len(set(pieces)) == len(pieces)
    keys = [(s.lo, s.hi) for s in pieces]
    assert keys == sorted(keys)


# -- Segment value semantics ----------------------------------------------------


class TestSegmentSemantics:
    @pytest.mark.parametrize(
        "args, message",
        [
            ((5.0, 4.0, 0.0, 0.0), "segment domain empty: [5.0, 4.0]"),
            ((0.0, math.inf, 0.0, 0.0), "segment domain must be finite"),
            ((-math.inf, 0.0, 0.0, 0.0), "segment domain must be finite"),
            ((math.nan, 1.0, 0.0, 0.0), "segment domain must be finite"),
            ((0.0, math.nan, 0.0, 0.0), "segment domain must be finite"),
            ((0.0, 1.0, math.inf, 0.0), "segment coefficients must be finite"),
            ((0.0, 1.0, 0.0, -math.inf), "segment coefficients must be finite"),
            ((0.0, 1.0, math.nan, 0.0), "segment coefficients must be finite"),
            ((0.0, 1.0, 0.0, math.nan), "segment coefficients must be finite"),
        ],
    )
    def test_rejects_with_message(self, args, message):
        with pytest.raises(ValueError) as err:
            Segment(*args)
        assert str(err.value) == message

    def test_immutable(self):
        s = Segment(0.0, 1.0, 2.0, 3.0)
        for field in ("lo", "hi", "intercept", "slope"):
            with pytest.raises(AttributeError):
                setattr(s, field, 9.0)
        with pytest.raises(AttributeError):
            s.extra = 1.0

    def test_equality_and_hash(self):
        a = Segment(0.0, 1.0, 2.0, 3.0)
        b = Segment(0.0, 1.0, 2.0, 3.0)
        assert a == b and hash(a) == hash(b)
        assert a != Segment(0.0, 1.0, 2.0, 3.5)
        assert len({a, b, Segment(0.0, 1.0, 2.0, 3.5)}) == 2

    def test_fields_and_repr(self):
        s = Segment(0.0, 1.0, 2.0, 3.0)
        assert (s.lo, s.hi, s.intercept, s.slope) == (0.0, 1.0, 2.0, 3.0)
        assert repr(s) == "Segment(lo=0.0, hi=1.0, intercept=2.0, slope=3.0)"

    def test_pickle_round_trip_revalidates(self):
        s = Segment(0.0, 1.0, 2.0, 3.0)
        t = pickle.loads(pickle.dumps(s))
        assert t == s and type(t) is Segment
        assert copy.deepcopy(s) == s

    def test_pwl_rejects_overlap_with_message(self):
        a, b = Segment(0, 2, 0, 0), Segment(1, 3, 1, 0)
        for order in ([a, b], [b, a]):
            with pytest.raises(ValueError) as err:
                PWL(order)
            assert str(err.value) == f"overlapping segment domains: {a} and {b}"
