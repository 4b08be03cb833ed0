"""Tests for bounded-growth MSRI pruning (docs/PRUNING.md).

Three layers under test:

* the allocation-free predictive classification (``leq_status`` /
  ``domain_subset``) against the exact region machinery it replicates;
* the standalone sorted-front sweep (``prefilter_front``, off the DP
  path), the predictive repeater and join stages that skip building
  certified-dominated candidates, and the end-to-end exact-mode
  bit-identity guarantee over randomized nets;
* the width/segment caps and their exact-by-default, lossy-by-consent
  contract, including the stats/observability accounting they share.
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import contracts
from repro.core.intervals import IntervalSet
from repro.core.mfs import mfs
from repro.core import msri
from repro.core import prefilter as prefilter_module
from repro.core.msri import (
    MSRIOptions,
    MSRIStats,
    _buffered_survivors,
    _enforce_segment_budget,
    insert_repeaters,
    validate_msri_overrides,
)
from repro.core.msri_engine import IncrementalMSRI
from repro.core.prefilter import (
    LEQ_EMPTY,
    LEQ_FULL,
    LEQ_PARTIAL,
    domain_subset,
    leq_status,
    line_leq_status,
    min_diam_lower_bound,
    prefilter_front,
)
from repro.core.pwl import PWL, Segment, max_segment_count
from repro.core.solution import Solution, apply_repeater, join, join_pieces
from repro.netgen.random_nets import random_net
from repro.netgen.workloads import (
    driver_sizing_options,
    paper_driver_options,
    paper_instance,
    paper_repeater_library,
    paper_technology,
    repeater_insertion_options,
)
from repro.obs import core as obs
from repro.rctree import TreeBuilder
from repro.rctree.topology import NodeKind
from repro.steiner import add_insertion_points
from repro.tech import NEVER, Buffer, Repeater, RepeaterLibrary, default_wire_library

from .conftest import make_terminal, random_topology

TECH = paper_technology()

C_MAX = 10.0


def sol(cost=0.0, cap=0.0, q=0.0, arr=None, diam=None, domain=None, parity=0):
    domain = domain or IntervalSet.single(0.0, C_MAX)
    return Solution(
        cost=cost, cap=cap, q=q, arr=arr, diam=diam, domain=domain, parity=parity
    )


def line(i, s, lo=0.0, hi=C_MAX):
    return PWL.linear(i, s, lo, hi)


# -- validate_msri_overrides ---------------------------------------------------


class TestValidateOverrides:
    def test_none_and_empty_pass_through(self):
        assert validate_msri_overrides(None) == {}
        assert validate_msri_overrides({}) == {}

    def test_known_knobs_round_trip(self):
        knobs = {
            "prefilter": False,
            "max_front_width": 8,
            "max_pwl_segments": 4,
            "spec": 1500.0,
            "lossy": True,
            "quantize_bound": True,
        }
        assert validate_msri_overrides(knobs) == knobs

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="max_width"):
            validate_msri_overrides({"max_width": 8})

    @pytest.mark.parametrize(
        "knobs",
        [
            {"max_front_width": 7.5},
            {"max_pwl_segments": "two"},
            {"spec": "fast"},
            {"spec": True},
            # booleans are not coerced by truthiness: "false" is no bool
            {"prefilter": "false"},
            {"lossy": "no"},
            {"quantize_bound": 0},
            {"prefilter": 1},
            {"quantize_bound": None},
        ],
    )
    def test_mistyped_values_rejected(self, knobs):
        with pytest.raises(ValueError, match=next(iter(knobs))):
            validate_msri_overrides(knobs)

    @pytest.mark.parametrize(
        "knobs",
        [
            # range checks live in MSRIOptions.__post_init__, which every
            # entry point funnels the validated overrides through
            {"max_front_width": 1},
            {"max_pwl_segments": 0},
        ],
    )
    def test_out_of_range_values_rejected_by_options(self, knobs):
        with pytest.raises(ValueError):
            repeater_insertion_options(**validate_msri_overrides(knobs))

    def test_options_accept_mfs_leaf_size_one(self, monkeypatch):
        # the MFS leaf size is a module constant, no longer an option; a
        # leaf of one (every prune a merge) must not change the DP result
        tree = paper_instance(0, 3)
        default = insert_repeaters(tree, TECH, repeater_insertion_options())
        monkeypatch.setattr(msri, "_MFS_LEAF_SIZE", 1)
        one = insert_repeaters(tree, TECH, repeater_insertion_options())
        assert one.tradeoff() == default.tradeoff()

    def test_options_reject_lossy_without_cap(self):
        with pytest.raises(ValueError, match="lossy"):
            repeater_insertion_options(lossy=True)

    def test_options_accept_lossy_with_cap(self):
        opts = repeater_insertion_options(max_front_width=4, lossy=True)
        assert isinstance(opts, MSRIOptions)


# -- leq_status vs the exact region machinery ---------------------------------


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


@given(pwls(), pwls())
@settings(max_examples=200)
def test_leq_status_matches_region_oracle(f, g):
    """The classification must agree with the region it predicts.

    ``prune_one`` relies on exactly two implications: EMPTY means the
    region machinery would find nothing, FULL means it would return the
    whole common domain.  (PARTIAL pairs fall through to the machinery
    itself, so no claim is needed there.)
    """
    status = leq_status(f, g)
    common = f.domain().intersect(g.domain())
    region = f.region_leq(g).intersect(common)
    if status == LEQ_EMPTY:
        assert region.is_empty
    elif status == LEQ_FULL:
        assert region == common
    else:
        assert status == LEQ_PARTIAL


def test_leq_status_none_encoding():
    f = line(1.0, 0.0)
    assert leq_status(None, f) == LEQ_FULL  # -inf below everything
    assert leq_status(f, None) == LEQ_EMPTY  # finite never below -inf
    assert leq_status(None, None) == LEQ_FULL


def test_leq_status_single_segment_cases():
    low = line(0.0, 1.0)
    high = line(1.0, 1.0)
    crossing = line(5.0, 0.0)  # crosses `low` at x = 5
    assert leq_status(low, high) == LEQ_FULL
    assert leq_status(high, low) == LEQ_EMPTY
    assert leq_status(crossing, low) == LEQ_PARTIAL
    # disjoint domains: nowhere comparable
    left = line(0.0, 0.0, lo=0.0, hi=2.0)
    right = line(0.0, 0.0, lo=5.0, hi=8.0)
    assert leq_status(left, right) == LEQ_EMPTY


#: A two-segment ``diam`` from a sizing join on a paper net: its segments
#: meet at 1.6697... one ulp apart (1913.2379558175342 vs ...534).
_SIZING_DIAM = PWL((
    Segment(0.0, 1.6697208029052968, 940.1248363499407, 582.7999015011293),
    Segment(1.6697208029052968, 2.2079437913748774, 804.5304995734278,
            664.0076917739582),
))


def test_leq_status_of_a_function_with_itself_at_a_breakpoint():
    """The walk meets the first segment against the second at their shared
    breakpoint, where the lines differ by an ulp; the neighbouring full
    overlaps cover that point, as the region union does."""
    f = _SIZING_DIAM
    assert f.region_leq(f) == f.domain()
    assert leq_status(f, f) == LEQ_FULL


@st.composite
def near_copies(draw):
    """A PWL and a copy with each intercept moved by a few ulps."""
    f = draw(pwls())
    moved = [
        Segment(lo, hi, _ulps_apart(ic, draw(st.integers(-2, 2))), sl)
        for lo, hi, ic, sl in f.segments
    ]
    return f, PWL(moved)


@given(near_copies())
@settings(max_examples=300)
def test_leq_status_on_near_copies_matches_the_region(pair):
    """``leq_status(f, f)`` is full, and on ulp-level copies the
    classification keeps both implications the pruner relies on."""
    f, g = pair
    assert leq_status(f, f) == LEQ_FULL
    for by, s in ((f, g), (g, f), (f, f)):
        status = leq_status(by, s)
        common = by.domain().intersect(s.domain())
        region = by.region_leq(s).intersect(common)
        if status == LEQ_FULL:
            assert region == common
        elif status == LEQ_EMPTY:
            assert region.is_empty


# -- line_leq_status: the 1x1 block shared with the predictive stage ----------


#: A buffered arr line has slope r_ba; with a steep slope and a wide
#: domain, intercepts one ulp apart round to the same value at c_max.
_STEEP, _WIDE = 1e6, 1e3
_ONE_UP = math.nextafter(1.0, 2.0)


def _ulps_apart(base, k):
    out = base
    for _ in range(abs(k)):
        out = math.nextafter(out, math.inf if k > 0 else -math.inf)
    return out


@given(
    a=st.floats(min_value=-1e3, max_value=1e3),
    ulps=st.integers(min_value=-3, max_value=3),
    far=st.floats(min_value=-1e3, max_value=1e3),
    near=st.booleans(),
    slope=st.sampled_from([0.0, 0.5, 37.0, _STEEP]),
    c_max=st.sampled_from([1.0, 10.0, _WIDE]),
)
@settings(max_examples=300, deadline=None)
def test_line_leq_status_equals_leq_status_on_built_lines(
    a, ulps, far, near, slope, c_max
):
    """The helper classifies like leq_status on the PWLs apply_repeater builds.

    Buffered arr lines are ``PWL.linear(arr_0, r_ba, 0, c_max)`` and
    diam lines ``PWL.constant(diam_b, 0, c_max)``; intercepts a few ulps
    apart cover the endpoint differences that straddle zero by rounding.
    """
    b = _ulps_apart(a, ulps) if near else far
    for x, y in ((a, b), (b, a)):
        built = leq_status(
            PWL.linear(x, slope, 0.0, c_max), PWL.linear(y, slope, 0.0, c_max)
        )
        assert line_leq_status(0.0, c_max, x, slope, y, slope) == built
        built = leq_status(
            PWL.constant(x, 0.0, c_max), PWL.constant(y, 0.0, c_max)
        )
        assert line_leq_status(0.0, c_max, x, 0.0, y, 0.0) == built


def test_line_leq_status_midpoint_branch():
    # one ulp above at x = 0, equal after rounding at c_max: the endpoint
    # differences are (+ulp, 0), so the midpoint decides, as in leq_status
    assert _ONE_UP > 1.0
    assert 1.0 + _STEEP * _WIDE == _ONE_UP + _STEEP * _WIDE
    hi = PWL.linear(_ONE_UP, _STEEP, 0.0, _WIDE)
    lo = PWL.linear(1.0, _STEEP, 0.0, _WIDE)
    for f, g in ((hi, lo), (lo, hi), (hi, hi)):
        (_, _, fi, fs), = f.segments
        (_, _, gi, gs), = g.segments
        assert line_leq_status(0.0, _WIDE, fi, fs, gi, gs) == leq_status(f, g)


# -- the predictive repeater stage --------------------------------------------


def _certificate_by_construction(parents, rep, c_max):
    """Reference for _buffered_survivors: build every candidate, then sweep.

    The built candidates are swept in the MFS order (uid = parent order)
    and each is tested against *every* earlier survivor with the full
    certificate (docs/ALGORITHMS.md §12), computed by leq_status and
    domain_subset on the built solutions.
    """
    built = []
    for i, p in enumerate(parents):
        b = apply_repeater(p, rep, 0, c_max)
        if b is not None:
            built.append((b, i))
    built.sort(key=lambda bi: (bi[0].parity, bi[0].cost, bi[0].cap, bi[0].q,
                               bi[0].uid))
    killers, survivors = [], []
    for b, i in built:
        if not any(
            k.parity == b.parity and k.cost <= b.cost and k.cap <= b.cap
            and k.q <= b.q and domain_subset(b.domain, k.domain)
            and leq_status(k.arr, b.arr) == LEQ_FULL
            and leq_status(k.diam, b.diam) == LEQ_FULL
            for k in killers
        ):
            killers.append(b)
            survivors.append(i)
    return sorted(survivors), len(built)


_STEEP_REP = Repeater("steep", d_ab=1.0, r_ab=2.0, c_a=0.5, d_ba=0.0,
                      r_ba=_STEEP, c_b=0.25, cost=2.0)
_INV_REP = Repeater("inv", d_ab=1.0, r_ab=2.0, c_a=0.5, d_ba=1.0,
                    r_ba=0.5, c_b=0.25, cost=1.0, is_inverting=True)


@st.composite
def parent_sets(draw):
    grid = st.sampled_from([0.0, 1.0, 2.0])
    # intercepts one ulp apart: equal after adding r_ba * c_max
    level = st.sampled_from([1.0, _ONE_UP, 2.0])
    arr = st.one_of(st.none(), st.tuples(level, st.sampled_from([0.0, 1.0])))
    diam = st.one_of(st.none(), level)
    dom = st.sampled_from([
        IntervalSet.single(0.0, _WIDE),
        IntervalSet.from_pairs([(0.0, 0.1), (0.5, _WIDE)]),  # c_b in the hole
    ])
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        d = draw(dom)
        a = draw(arr)
        dm = draw(diam)
        out.append(Solution(
            cost=draw(grid),
            cap=draw(grid),
            q=draw(st.sampled_from([NEVER, 0.0, 1.0])),
            arr=None if a is None else PWL.linear(*a, 0.0, _WIDE).restrict(d),
            diam=None if dm is None else PWL.constant(dm, 0.0, _WIDE).restrict(d),
            domain=d,
            parity=draw(st.sampled_from([0, 1])),
        ))
    return out


@given(parent_sets(), st.sampled_from([_STEEP_REP, _INV_REP]))
@settings(max_examples=200, deadline=None)
def test_buffered_survivors_match_the_built_certificate(parents, rep):
    """Deciding from four scalars == deciding on the built candidates."""
    assert _buffered_survivors(parents, rep, _WIDE) == (
        _certificate_by_construction(parents, rep, _WIDE)
    )


def test_buffered_survivors_follow_the_midpoint_rule():
    # the cheaper sibling's arr intercept is one ulp higher, but the two
    # buffered lines round equal at c_max: leq_status calls that FULL (the
    # midpoint decides), so the dearer sibling is dropped, not kept
    dom = IntervalSet.single(0.0, _WIDE)
    parents = [
        Solution(cost=0.0, cap=1.0, q=0.0, arr=PWL.constant(_ONE_UP, 0.0, _WIDE),
                 diam=None, domain=dom),
        Solution(cost=1.0, cap=1.0, q=0.0, arr=PWL.constant(1.0, 0.0, _WIDE),
                 diam=None, domain=dom),
    ]
    assert _certificate_by_construction(parents, _STEEP_REP, _WIDE) == ([0], 2)
    assert _buffered_survivors(parents, _STEEP_REP, _WIDE) == ([0], 2)


def test_buffered_survivors_handle_none_and_never():
    never = dict(cap=1.0, domain=IntervalSet.single(0.0, _WIDE))
    parents = [
        Solution(cost=0.0, q=NEVER, arr=line(1.0, 0.0, hi=_WIDE),
                 diam=PWL.constant(1.0, 0.0, _WIDE), **never),
        # no source, no pair, no sink: -inf is never above a finite line,
        # so the earlier sibling cannot drop it
        Solution(cost=0.0, q=NEVER, arr=None, diam=None, **never),
        # the same at a higher cost: dropped by the second
        Solution(cost=1.0, q=NEVER, arr=None, diam=None, **never),
    ]
    assert _buffered_survivors(parents, _STEEP_REP, _WIDE) == ([0, 1], 3)
    assert _certificate_by_construction(parents, _STEEP_REP, _WIDE) == ([0, 1], 3)


# -- domain_subset -------------------------------------------------------------


intervals_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=9.0),
        st.floats(min_value=0.0, max_value=9.0),
    ).map(lambda p: (min(p), max(p) + 0.5)),
    max_size=4,
)


@given(intervals_lists, intervals_lists)
@settings(max_examples=200)
def test_domain_subset_matches_intersection(pa, pb):
    a = IntervalSet.from_pairs(pa)
    b = IntervalSet.from_pairs(pb)
    assert domain_subset(a, b) == (a.intersect(b) == a)


def test_domain_subset_edges():
    full = IntervalSet.single(0.0, 10.0)
    holey = IntervalSet.from_pairs([(0.0, 3.0), (5.0, 10.0)])
    assert domain_subset(holey, full)
    assert not domain_subset(full, holey)  # the hole [3, 5] is uncovered
    assert domain_subset(IntervalSet.empty(), holey)
    assert domain_subset(holey, holey)


# -- prefilter_front -----------------------------------------------------------


@st.composite
def solution_lists(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    out = []
    # small grids on purpose: exact scalar ties must occur
    grid = st.sampled_from([0.0, 1.0, 2.0, 3.0])
    fun = st.one_of(
        st.none(),
        st.tuples(grid, st.sampled_from([0.0, 0.5, 1.0])).map(
            lambda p: line(p[0], p[1])
        ),
    )
    dom = st.sampled_from(
        [
            IntervalSet.single(0.0, C_MAX),
            IntervalSet.single(2.0, 8.0),
            IntervalSet.from_pairs([(0.0, 3.0), (5.0, C_MAX)]),
        ]
    )
    for _ in range(n):
        out.append(
            sol(
                cost=draw(grid),
                cap=draw(grid),
                q=draw(grid),
                arr=draw(fun),
                diam=draw(fun),
                domain=draw(dom),
                parity=draw(st.sampled_from([0, 1])),
            )
        )
    return out


@given(solution_lists())
@settings(max_examples=150, deadline=None)
def test_prefilter_front_preserves_the_mfs(sols):
    """Sweeping candidates first must not change the surviving front."""
    filtered = prefilter_front(sols)
    assert len(filtered) <= len(sols)
    contracts.verify_front_equivalence(
        mfs(filtered), mfs(sols), context="prefilter_front property"
    )


def test_prefilter_front_drops_certified_duplicates():
    base = sol(cost=1.0, cap=1.0, q=1.0, arr=line(0.0, 1.0), diam=line(0.0, 1.0))
    clone = sol(cost=1.0, cap=1.0, q=1.0, arr=line(0.0, 1.0), diam=line(0.0, 1.0))
    worse = sol(cost=2.0, cap=2.0, q=2.0, arr=line(1.0, 1.0), diam=line(1.0, 1.0))
    out = prefilter_front([base, clone, worse])
    assert [s.uid for s in out] == [base.uid]


def test_min_diam_lower_bound():
    s = sol(diam=PWL.from_breakpoints([0.0, 5.0, 10.0], [4.0, 2.0, 6.0]))
    assert min_diam_lower_bound(s) == 2.0
    assert min_diam_lower_bound(sol(diam=None)) == float("-inf")


# -- end-to-end exact-mode bit-identity ---------------------------------------


_FULL = os.environ.get("REPRO_FULL") == "1"
_CASES = [
    (seed, pins)
    for seed in range(40 if _FULL else 8)
    for pins in ((3, 4, 5, 6, 7) if _FULL else (3, 4, 5))
]


@pytest.mark.parametrize("seed,pins", _CASES)
def test_exact_mode_is_bit_identical(seed, pins):
    """Randomized nets: pre-filtered DP == pure Fig. 4 DP, field for field.

    Runs under REPRO_CHECK-style contracts, so every prune site is also
    re-derived against a prescreen-free MFS pass on the way
    (``verify_front_equivalence``).
    """
    tree = random_net(seed, pins)
    with contracts.checking(True):
        fast = insert_repeaters(tree, TECH, repeater_insertion_options())
    baseline = insert_repeaters(
        tree, TECH, repeater_insertion_options(prefilter=False)
    )
    assert fast.tradeoff() == baseline.tradeoff()
    assert fast.stats.solutions_generated == baseline.stats.solutions_generated
    assert (
        fast.stats.solutions_after_pruning
        == baseline.stats.solutions_after_pruning
    )
    assert fast.stats.max_set_size == baseline.stats.max_set_size


# -- the predictive repeater stage, end to end ---------------------------------


_INV_1X = Buffer("inv1x", intrinsic_delay=30.0, output_resistance=400.0,
                 input_capacitance=0.05, cost=0.5, is_inverting=True)
_BUF_2X = Buffer("buf2x", intrinsic_delay=50.0, output_resistance=200.0,
                 input_capacitance=0.1, cost=2.0)
_BUF_1X = Buffer("buf1x", intrinsic_delay=50.0, output_resistance=400.0,
                 input_capacitance=0.05, cost=1.0)

#: The four libraries the stage must be exact on: each entry builds the
#: MSRIOptions for a given ``prefilter`` setting.
_STAGE_LIBRARIES = {
    "1x-pair": lambda prefilter: repeater_insertion_options(prefilter=prefilter),
    "inverting-pair": lambda prefilter: MSRIOptions(
        library=RepeaterLibrary([Repeater.from_buffer_pair(_INV_1X)]),
        prefilter=prefilter,
    ),
    # an inverter and an asymmetric pair: three oriented options
    "mixed": lambda prefilter: MSRIOptions(
        library=RepeaterLibrary([
            Repeater.from_buffer_pair(_INV_1X),
            Repeater.from_buffer_pair(_BUF_2X, _BUF_1X, name="asym"),
        ]),
        prefilter=prefilter,
    ),
    "with-driver-sizing": lambda prefilter: MSRIOptions(
        library=paper_repeater_library(),
        driver_options=paper_driver_options((1.0, 2.0)),
        prefilter=prefilter,
    ),
}


def test_mixed_library_offers_several_oriented_options():
    library = _STAGE_LIBRARIES["mixed"](True).library
    assert len(library.oriented_options()) == 3


def _stage_net(seed):
    rng = np.random.default_rng(seed)
    # pure sources and pure sinks give q == NEVER and arr of None
    bare = random_topology(
        rng, n_terminals=int(rng.integers(3, 5)), p_insertion=0.0, grid=6000.0
    )
    return add_insertion_points(bare, spacing=2500.0)


def _fronts(tree, options):
    engine = IncrementalMSRI(tree, TECH, options)
    result = engine.solve()
    return result, engine._fronts


@pytest.mark.parametrize("library", sorted(_STAGE_LIBRARIES))
@pytest.mark.parametrize("seed", range(4))
def test_predictive_stage_fronts_match_full_build(library, seed):
    """At every insertion node, the front equals the full-build front.

    The full build is ``prefilter=False``: every buffered candidate built,
    the pure Fig. 4 pruner.  The stage runs twice: with contracts, where
    each insertion node's front is also checked against the prescreen-free
    MFS of its complete candidate set, and without, where only survivors
    are built.
    """
    tree = _stage_net(seed)
    make = _STAGE_LIBRARIES[library]
    full, full_fronts = _fronts(tree, make(False))
    with contracts.checking(True):
        checked, _ = _fronts(tree, make(True))
    with contracts.checking(False):
        fast, fast_fronts = _fronts(tree, make(True))
    sites = [
        v for v in full_fronts
        if tree.node(v).kind is NodeKind.INSERTION
    ]
    assert sites
    for v in sites:
        contracts.verify_front_values(
            fast_fronts[v], full_fronts[v], context=f"{library} node {v}"
        )
    for res in (checked, fast):
        assert res.tradeoff() == full.tradeoff()
        assert res.stats.solutions_generated == full.stats.solutions_generated
        assert res.stats.set_sizes == full.stats.set_sizes


def test_predictive_stage_builds_fewer_candidates(small_net, monkeypatch):
    """Fewer apply_repeater and join calls than Fig. 5 / Fig. 7 candidates.

    The difference is counted as prefilter drops: ``dropped`` is exactly
    the unbuilt buffered candidates plus the unbuilt joined pairs.
    """
    built = []
    joined = []

    def counting_apply(*args):
        out = apply_repeater(*args)
        built.append(out is not None)
        return out

    def counting_join(*args):
        out = join(*args)
        joined.append(out is not None)
        return out

    monkeypatch.setattr(msri, "apply_repeater", counting_apply)
    monkeypatch.setattr(msri, "join", counting_join)
    with contracts.checking(False):
        full = insert_repeaters(
            small_net, TECH, repeater_insertion_options(prefilter=False)
        )
        fig5 = sum(built)
        fig7_pairs, fig7 = len(joined), sum(joined)
        built.clear()
        joined.clear()
        with obs.observing():
            fast = insert_repeaters(small_net, TECH, repeater_insertion_options())
            snap = obs.snapshot(reset=True)
    assert all(built)  # survivors only: every call builds a candidate
    assert len(built) < fig5
    assert len(joined) < fig7_pairs
    counters = snap["counters"]
    assert counters["msri.prefilter.examined"] == fast.stats.solutions_generated
    assert counters["msri.prefilter.dropped"] == (
        (fig5 - len(built)) + (fig7 - sum(joined))
    )
    assert fast.stats.solutions_generated == full.stats.solutions_generated
    assert fast.tradeoff() == full.tradeoff()


@pytest.mark.parametrize("checking", [False, True])
def test_pruner_never_runs_the_sweep(small_net, monkeypatch, checking):
    """MFS alone prunes each vertex: the sorted-front sweep is off the DP."""

    def forbidden(*args, **kwargs):
        raise AssertionError("prefilter_front ran inside the DP")

    monkeypatch.setattr(prefilter_module, "prefilter_front", forbidden)
    monkeypatch.setattr(msri, "prefilter_front", forbidden, raising=False)
    with contracts.checking(checking):
        result = insert_repeaters(small_net, TECH, repeater_insertion_options())
    assert result.tradeoff()


# -- the predictive join, end to end -------------------------------------------


def _star_net(seed):
    """A root terminal above a Steiner point with four terminal children."""
    rng = np.random.default_rng(seed)

    def terminal(name, x, y):
        return make_terminal(
            name, x, y,
            alpha=float(rng.uniform(0.0, 200.0)),
            beta=float(rng.uniform(0.0, 200.0)),
            cap=float(rng.uniform(0.01, 0.5)),
            res=float(rng.uniform(50.0, 400.0)),
        )

    b = TreeBuilder()
    root = b.add_terminal(terminal("r", 0.0, 0.0))
    hub = b.add_steiner(3000.0, 0.0)
    b.connect(root, hub)
    for n, (x, y) in enumerate(((6000.0, 0.0), (3000.0, 3000.0),
                                (3000.0, -3000.0), (5000.0, 2000.0))):
        b.connect(hub, b.add_terminal(terminal(f"t{n}", x, y)))
    return add_insertion_points(b.build(root=root), spacing=1500.0)


#: Paper-protocol nets whose fronts below a branch vertex have holes.
_HOLEY_NETS = ((5, 5), (1, 6))

#: case -> (net for a seed, MSRIOptions for a ``prefilter`` setting)
_JOIN_CASES = {
    **{
        lib: (_stage_net, make) for lib, make in _STAGE_LIBRARIES.items()
    },
    "wire-library": (_stage_net, lambda prefilter: MSRIOptions(
        library=paper_repeater_library(),
        wire_library=default_wire_library(widths=(1.0, 2.0)),
        prefilter=prefilter,
    )),
    "4-child-steiner": (
        _star_net, lambda prefilter: repeater_insertion_options(prefilter=prefilter)
    ),
    "holey-domain": (
        lambda seed: paper_instance(*_HOLEY_NETS[seed]),
        lambda prefilter: repeater_insertion_options(prefilter=prefilter),
    ),
}


@pytest.mark.parametrize("case", sorted(_JOIN_CASES))
@pytest.mark.parametrize("seed", range(2))
def test_predictive_join_fronts_match_full_build(case, seed):
    """At every vertex, the front equals the full-build front.

    The full build is ``prefilter=False``: every pair joined, the pure
    Fig. 4 pruner.  The predictive join runs with contracts, where each
    branch front is also checked against the prescreen-free MFS of its
    complete join, and without, where only the uncertified pairs are
    built.
    """
    net, make = _JOIN_CASES[case]
    tree = net(seed)
    full, full_fronts = _fronts(tree, make(False))
    with contracts.checking(True):
        checked, checked_fronts = _fronts(tree, make(True))
    with contracts.checking(False):
        fast, fast_fronts = _fronts(tree, make(True))
    branches = [v for v in full_fronts if tree.node(v).kind is NodeKind.STEINER]
    assert branches
    if case == "4-child-steiner":
        assert max(len(tree.children(v)) for v in branches) >= 4
    if case == "holey-domain":
        assert any(
            len(s.domain) > 1
            for v in branches for u in tree.children(v) for s in full_fronts[u]
        )
    for v in full_fronts:
        for fronts in (checked_fronts, fast_fronts):
            contracts.verify_front_values(
                fronts[v], full_fronts[v], context=f"{case} node {v}"
            )
    for res in (checked, fast):
        assert res.tradeoff() == full.tradeoff()
        assert res.stats.solutions_generated == full.stats.solutions_generated
        assert res.stats.set_sizes == full.stats.set_sizes


def _join_certificate_by_construction(left, right, c_max):
    """Reference for _joined_pairs: join every pair, then sweep the built.

    The pairs are swept in the MFS order (pair index as the uid) and each
    is tested against every earlier survivor sharing a parent with the
    full certificate (docs/ALGORITHMS.md §12), computed by leq_status and
    domain_subset on the built solutions.  Returns the surviving pair
    indices, ascending, and the number of candidates.
    """
    built = []
    for i, a in enumerate(left):
        for k, b in enumerate(right):
            j = join(a, b, c_max)
            if j is not None:
                built.append((j, i, k))
    built.sort(key=lambda jik: (jik[0].parity, jik[0].cost, jik[0].cap,
                                jik[0].q, jik[1] * len(right) + jik[2]))
    killers, survivors = [], []
    for j, i, k in built:
        if not any(
            (ki == i or kk == k) and s.cost <= j.cost and s.cap <= j.cap
            and s.q <= j.q and domain_subset(j.domain, s.domain)
            and leq_status(s.arr, j.arr) == LEQ_FULL
            and leq_status(s.diam, j.diam) == LEQ_FULL
            for s, ki, kk in killers
        ):
            killers.append((j, i, k))
            survivors.append(i * len(right) + k)
    return sorted(survivors), len(built)


def _pair_indices(built, complete, left, right, c_max):
    """The pair index of each built candidate (they are complete's objects)."""
    index = {}
    pairs = iter(complete)
    for i, a in enumerate(left):
        for k, b in enumerate(right):
            if join(a, b, c_max) is not None:
                index[id(next(pairs))] = i * len(right) + k
    return sorted(index[id(s)] for s in built)


@st.composite
def join_sides(draw):
    """Two child fronts: exact scalar ties, one-ulp intercepts, holes."""
    grid = st.sampled_from([0.0, 1.0, 2.0])
    level = st.sampled_from([1.0, _ONE_UP, 2.0])
    fun = st.one_of(
        st.none(),
        st.tuples(level, st.sampled_from([0.0, 0.5, _STEEP])).map(
            lambda p: PWL.linear(p[0], p[1], 0.0, _WIDE)
        ),
        st.just(PWL.from_breakpoints([0.0, 5.0, _WIDE], [1.0, 3.0, 4.0])),
    )
    dom = st.sampled_from([
        IntervalSet.single(0.0, _WIDE),
        IntervalSet.single(0.0, 500.0),
        IntervalSet.from_pairs([(0.0, 3.0), (5.0, _WIDE)]),
    ])

    def side():
        out = []
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            d = draw(dom)
            arr = draw(fun)
            diam = draw(fun)
            out.append(Solution(
                cost=draw(grid),
                cap=draw(grid),
                q=draw(st.sampled_from([NEVER, 0.0, 1.0])),
                arr=None if arr is None else arr.restrict(d),
                diam=None if diam is None else diam.restrict(d),
                domain=d,
                parity=draw(st.sampled_from([0, 0, 1])),
            ))
        return out

    return side(), side()


@given(join_sides())
@settings(max_examples=200, deadline=None)
def test_joined_pairs_match_the_built_certificate(sides):
    """Certifying on join_pieces == certifying the built pairs, and the
    pruned front of the built pairs == that of the complete join."""
    left, right = sides
    with contracts.checking(True):
        built, unbuilt, complete = msri._joined_pairs(left, right, _WIDE, True)
        if complete is None:  # a single pair takes the plain loop
            assert unbuilt == 0
            return
        survivors, candidates = _join_certificate_by_construction(
            left, right, _WIDE
        )
        assert _pair_indices(built, complete, left, right, _WIDE) == survivors
        assert unbuilt == candidates - len(survivors) == len(complete) - len(built)
        contracts.verify_front_equivalence(
            mfs(built), mfs(complete, prescreen=False), context="predictive join"
        )
    with contracts.checking(False):
        fast, fast_unbuilt, none = msri._joined_pairs(left, right, _WIDE, True)
    assert none is None and fast_unbuilt == unbuilt
    contracts.verify_front_values(mfs(fast), mfs(complete), context="uncontracted")


def _sink(q=0.0):
    """A pure sink with no cap: joining it shifts nothing."""
    return Solution(cost=0.0, cap=0.0, q=q, arr=None, diam=None,
                    domain=IntervalSet.single(0.0, _WIDE))


def _source(intercept, slope):
    return Solution(cost=0.0, cap=0.0, q=NEVER,
                    arr=PWL.linear(intercept, slope, 0.0, _WIDE), diam=None,
                    domain=IntervalSet.single(0.0, _WIDE))


@pytest.mark.parametrize("checking", [False, True])
@pytest.mark.parametrize(
    "second,slope,unbuilt",
    [
        # an exact tie: the later pair is a copy of the earlier one
        (1.0, 0.5, 1),
        # one ulp lower everywhere: the later pair is better, so built
        (math.nextafter(1.0, 0.0), 0.0, 0),
        # one ulp lower at 0, equal after rounding at c_max: the endpoint
        # differences straddle zero and the midpoint calls the earlier
        # line no worse, as leq_status does on the built pairs
        (math.nextafter(1.0, 0.0), _STEEP, 1),
    ],
)
def test_predictive_join_ties(second, slope, unbuilt, checking):
    """Pairs (sink, source) in the same row tie on every scalar.

    The pair index decides the order, so the first pair can only kill
    the second, and does exactly when leq_status on the built pairs says
    so: ``arr`` and ``diam`` (the arrival plus the sink's q) are the
    source's line, since the sink adds no cap and q = 0.
    """
    left = [_sink()]
    right = [_source(1.0, slope), _source(second, slope)]
    if unbuilt:
        first, later = (join(left[0], b, _WIDE) for b in right)
        assert leq_status(first.arr, later.arr) == LEQ_FULL
        assert leq_status(first.diam, later.diam) == LEQ_FULL
    with contracts.checking(checking):
        built, got, _ = msri._joined_pairs(left, right, _WIDE, True)
    assert got == unbuilt
    assert len(built) == 2 - unbuilt
    assert _join_certificate_by_construction(left, right, _WIDE) == (
        [0, 1][:2 - unbuilt], 2
    )


# -- the certificate from the parents' lines -----------------------------------


@contextlib.contextmanager
def _certified_pairs():
    """Record ``(a, b, c_max, killer)`` for each pair the parents' lines
    certify while the block runs."""
    seen = []
    names = ("_certified", "_certified_lines")
    originals = {name: getattr(msri, name) for name in names}

    def spy(real):
        def certify(a, b, sa, sb, row, col, cap, q, margin, c_max):
            found = real(a, b, sa, sb, row, col, cap, q, margin, c_max)
            if isinstance(found, msri._Built):
                seen.append((a, b, c_max, found.pair))
            return found
        return certify

    for name, real in originals.items():
        setattr(msri, name, spy(real))
    try:
        yield seen
    finally:
        for name, real in originals.items():
            setattr(msri, name, real)


@contextlib.contextmanager
def _line_certificate_against_general():
    """Answer each ``_certified_lines`` call with ``_certified`` too,
    assert both agree, and record the answers."""
    answers = []
    real = msri._certified_lines

    def certify(*args):
        found = real(*args)
        assert found is msri._certified(*args)
        answers.append(found)
        return found

    msri._certified_lines = certify
    try:
        yield answers
    finally:
        msri._certified_lines = real


def _assert_dominated_when_built(seen):
    """Each certified pair is one the full check drops on its pieces."""
    for a, b, c_max, killer in seen:
        pieces = join_pieces(a, b, c_max)
        assert pieces is not None
        assert msri._dominated(pieces, [killer])


@given(join_sides())
@settings(max_examples=200, deadline=None)
def test_certified_join_pairs_are_dominated_when_built(sides):
    left, right = sides
    with _certified_pairs() as seen, contracts.checking(False):
        msri._joined_pairs(left, right, _WIDE, True)
    _assert_dominated_when_built(seen)


@st.composite
def line_sides(draw):
    """Two child fronts on a small axis, where the margin is small next
    to the gaps between lines: lines, two-segment functions, holes and
    exact ties."""
    c_max = 10.0
    level = st.sampled_from([0.0, 1.0, 1.5, 3.0])
    fun = st.one_of(
        st.none(),
        st.tuples(level, st.sampled_from([0.0, 0.5, 2.0])).map(
            lambda p: PWL.linear(p[0], p[1], 0.0, c_max)
        ),
        st.tuples(level, level).map(
            lambda p: PWL.from_breakpoints([0.0, 4.0, c_max], [p[0], p[0] + 2.0, p[1] + 9.0])
        ),
    )
    dom = st.sampled_from([
        IntervalSet.single(0.0, c_max),
        IntervalSet.single(0.0, 6.0),
        IntervalSet.from_pairs([(0.0, 2.0), (3.0, c_max)]),
    ])

    def side():
        out = []
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            d = draw(dom)
            arr = draw(fun)
            diam = draw(fun)
            out.append(Solution(
                cost=draw(st.sampled_from([0.0, 1.0])),
                cap=draw(st.sampled_from([0.0, 0.5, 1.0])),
                q=draw(st.sampled_from([NEVER, 0.0, 2.0])),
                arr=None if arr is None else arr.restrict(d),
                diam=None if diam is None else diam.restrict(d),
                domain=d,
            ))
        return out

    return side(), side(), c_max


@given(line_sides())
@settings(max_examples=300, deadline=None)
def test_certified_pairs_on_small_fronts_are_dominated_when_built(sides):
    left, right, c_max = sides
    with _certified_pairs() as seen, contracts.checking(False):
        msri._joined_pairs(left, right, c_max, True)
    _assert_dominated_when_built(seen)


_MODES = {
    "repeaters": repeater_insertion_options,
    "sizing": driver_sizing_options,
}


@given(line_sides())
@settings(max_examples=300, deadline=None)
def test_line_certificate_decides_as_the_general_one(sides):
    left, right, c_max = sides
    with _line_certificate_against_general(), contracts.checking(False):
        msri._joined_pairs(left, right, c_max, True)


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("pins", [4, 5])
def test_line_certificate_decides_as_the_general_one_on_paper_nets(mode, pins):
    with _line_certificate_against_general() as answers:
        insert_repeaters(paper_instance(pins, pins), TECH, _MODES[mode]())
    assert any(isinstance(found, msri._Built) for found in answers)


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("pins", [3, 4, 5, 6])
def test_certified_pairs_on_paper_nets_are_dominated_when_built(mode, pins):
    with _certified_pairs() as seen:
        insert_repeaters(paper_instance(pins, pins), TECH, _MODES[mode]())
    _assert_dominated_when_built(seen)


@pytest.mark.parametrize("mode", sorted(_MODES))
def test_certificate_fires_on_a_paper_net(mode):
    """The certificate settles most of a paper net's dropped pairs; in
    sizing mode some of them have a parent of several segments."""
    tree = paper_instance(0, 5)
    with _certified_pairs() as seen:
        result = insert_repeaters(tree, TECH, _MODES[mode]())
    assert len(seen) >= 20
    if mode == "sizing":
        assert any(
            f is not None and f.num_segments > 1
            for a, b, _, _ in seen for s in (a, b) for f in (s.arr, s.diam)
        )
    baseline = insert_repeaters(tree, TECH, _MODES[mode](prefilter=False))
    assert result.tradeoff() == baseline.tradeoff()


# -- the caps ------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_net():
    return paper_instance(0, 5)


@pytest.fixture(scope="module")
def exact_result(small_net):
    return insert_repeaters(small_net, TECH, repeater_insertion_options())


class TestWidthCap:
    def test_exact_cap_never_changes_results(self, small_net, exact_result):
        with obs.observing():
            capped = insert_repeaters(
                small_net, TECH, repeater_insertion_options(max_front_width=8)
            )
            snap = obs.snapshot(reset=True)
        assert capped.tradeoff() == exact_result.tradeoff()
        assert capped.stats.max_set_size == exact_result.stats.max_set_size
        assert snap["counters"]["msri.cap.exceeded"] > 0

    def test_lossy_cap_bounds_front_and_stays_conservative(
        self, small_net, exact_result
    ):
        capped = insert_repeaters(
            small_net,
            TECH,
            repeater_insertion_options(max_front_width=8, lossy=True),
        )
        assert capped.stats.max_set_size <= 8
        # lossy may be suboptimal, never optimistic
        assert capped.min_ard().ard >= exact_result.min_ard().ard - 1e-12
        for cost, ard in capped.tradeoff():
            covered = [a for c, a in exact_result.tradeoff() if c <= cost]
            assert min(covered) <= ard + 1e-12

    def test_exact_cap_with_spec_preserves_the_query(
        self, small_net, exact_result
    ):
        spec = exact_result.min_ard().ard + 1.0
        capped = insert_repeaters(
            small_net,
            TECH,
            repeater_insertion_options(max_front_width=8, spec=spec),
        )
        want = exact_result.min_cost_meeting(spec)
        got = capped.min_cost_meeting(spec)
        assert want is not None and got is not None
        assert (got.cost, got.ard) == (want.cost, want.ard)

    def test_infeasible_spec_keeps_the_front(self, small_net, exact_result):
        capped = insert_repeaters(
            small_net,
            TECH,
            repeater_insertion_options(max_front_width=2, spec=1e-6),
        )
        # nothing meets the spec; exact mode must still report the frontier
        assert capped.tradeoff() == exact_result.tradeoff()
        assert capped.min_cost_meeting(1e-6) is None


class TestSegmentBudget:
    def test_exact_budget_never_changes_results(self, small_net, exact_result):
        with obs.observing():
            res = insert_repeaters(
                small_net, TECH, repeater_insertion_options(max_pwl_segments=1)
            )
            snap = obs.snapshot(reset=True)
        assert res.tradeoff() == exact_result.tradeoff()
        assert snap["counters"].get("pwl.segments.over_budget", 0) > 0

    def test_lossy_budget_bounds_segments_and_stays_conservative(
        self, small_net, exact_result
    ):
        res = insert_repeaters(
            small_net,
            TECH,
            repeater_insertion_options(
                max_pwl_segments=2, max_front_width=64, lossy=True
            ),
        )
        # lossy simplification may be suboptimal, never optimistic (the
        # hard bound is unit-tested below: holey functions are exempt)
        assert res.min_ard().ard >= exact_result.min_ard().ard - 1e-12

    def test_enforce_budget_bounds_and_upper_bounds(self):
        wavy = PWL.from_breakpoints(
            [0.0, 1.0, 2.0, 3.0, C_MAX], [0.0, 5.0, 1.0, 6.0, 0.0]
        )
        s = sol(arr=wavy)
        (slim,) = _enforce_segment_budget([s], 2, True, False)
        assert slim.uid == s.uid  # identity survives the rewrite
        assert max_segment_count((slim.arr, slim.diam)) <= 2
        for x in (0.0, 0.5, 1.0, 1.7, 2.5, 3.0, 7.0, C_MAX):
            assert slim.arr(x) >= wavy(x) - 1e-12

    def test_enforce_budget_never_bridges_holes(self):
        holey = PWL(
            (
                Segment(0.0, 2.0, 1.0, 0.0),
                Segment(4.0, 6.0, 2.0, 0.0),
                Segment(8.0, C_MAX, 3.0, 0.0),
            )
        )
        s = sol(arr=holey, domain=holey.domain())
        (kept,) = _enforce_segment_budget([s], 2, True, False)
        assert kept.arr == holey  # budget unreachable without bridging


# -- stats / observability unification ----------------------------------------


def test_stats_and_obs_share_one_accounting(small_net):
    with obs.observing():
        res = insert_repeaters(small_net, TECH, repeater_insertion_options())
        snap = obs.snapshot(reset=True)
    points = [p for p in snap["points"] if p["name"] == "msri.node"]
    assert len(points) == res.stats.nodes_processed
    gen = kept = pruned = 0
    for p in points:
        attrs = p["attrs"]
        # the conservation identity, per node
        assert attrs["generated"] == attrs["kept"] + attrs["pruned"]
        gen += attrs["generated"]
        kept += attrs["kept"]
        pruned += attrs["pruned"]
    # the per-node points, the aggregate counters, and MSRIStats all come
    # from the same record() call — they can never drift apart
    assert gen == res.stats.solutions_generated
    assert kept == res.stats.solutions_after_pruning
    assert snap["counters"]["msri.solutions.generated"] == gen
    assert snap["counters"]["msri.solutions.kept"] == kept
    assert snap["counters"]["msri.solutions.pruned"] == pruned
    assert snap["counters"]["msri.prefilter.examined"] >= gen


def test_front_width_p95():
    stats = MSRIStats()
    assert stats.front_width_p95() == 0
    for node, width in enumerate(range(1, 21)):  # widths 1..20
        stats.record(node, width, [sol() for _ in range(width)])
    assert stats.front_width_p95() == 20  # index min(19, 20*95//100) = 19
    assert stats.max_set_size == 20


def test_front_width_p95_reported(exact_result):
    widths = exact_result.stats.set_sizes.values()
    p95 = exact_result.stats.front_width_p95()
    assert min(widths) <= p95 <= max(widths)
