"""Tests for minimal-functional-subset pruning (paper Sec. IV-D).

Soundness criterion: for every sampled external capacitance ``x``, any
solution that was Pareto-minimal at ``x`` in the original set must still be
*covered* after pruning — some survivor defined at ``x`` is no worse in all
five coordinates.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.contracts import checking
from repro.core.intervals import IntervalSet
from repro.core.mfs import mfs, mfs_pairwise, prune_one
from repro.core.msri import insert_repeaters
from repro.core.pwl import PWL, Segment
from repro.core.solution import Solution
from repro.netgen import paper_instance, paper_technology, repeater_insertion_options
from repro.tech import NEVER

# the package re-exports the function ``mfs`` under the module's name
mfs_module = importlib.import_module("repro.core.mfs")

C_MAX = 10.0


def sol(cost=0.0, cap=0.0, q=0.0, arr=None, diam=None, domain=None):
    domain = domain or IntervalSet.single(0.0, C_MAX)
    return Solution(cost=cost, cap=cap, q=q, arr=arr, diam=diam, domain=domain)


def line(i, s, lo=0.0, hi=C_MAX):
    return PWL.linear(i, s, lo, hi)


def coords_at(s, x):
    """The 5-tuple of coordinates of a solution at x (None if undefined)."""
    if not s.domain.contains(x, atol=1e-9):
        return None
    arr = s.arr.evaluate(x) if s.arr is not None else -np.inf
    diam = s.diam.evaluate(x) if s.diam is not None else -np.inf
    return (s.cost, s.cap, s.q, arr, diam)


def dominates(a, b, tol=1e-9):
    return all(x <= y + tol for x, y in zip(a, b))


def assert_mfs_sound(original, pruned, xs):
    for x in xs:
        table = [coords_at(s, x) for s in original]
        table = [t for t in table if t is not None]
        surv = [coords_at(s, x) for s in pruned]
        surv = [t for t in surv if t is not None]
        for t in table:
            # t must be covered by some survivor
            assert any(
                dominates(sv, t) for sv in surv
            ), f"point {t} at x={x} lost its cover"


class TestPruneOne:
    def test_no_prune_when_scalar_worse(self):
        a = sol(cost=1.0, arr=line(0, 1))
        b = sol(cost=2.0, arr=line(-100, 0))  # better arr but worse cost
        assert prune_one(a, b, strict=False) is a

    def test_full_prune(self):
        a = sol(cost=2.0, arr=line(10, 1))
        b = sol(cost=1.0, arr=line(0, 1))
        assert prune_one(a, b, strict=False) is None

    def test_partial_prune_creates_hole(self):
        # b's arr is better only for x < 5
        a = sol(arr=line(5, 0))    # constant 5
        b = sol(arr=line(0, 1))    # x
        a2 = prune_one(a, b, strict=False)
        assert a2 is not None
        assert a2.domain.approx_equal(IntervalSet.single(5.0, C_MAX))

    def test_weak_prunes_exact_tie(self):
        a = sol(arr=line(1, 1))
        b = sol(arr=line(1, 1))
        assert prune_one(a, b, strict=False) is None

    def test_strict_spares_exact_tie(self):
        a = sol(arr=line(1, 1))
        b = sol(arr=line(1, 1))
        assert prune_one(a, b, strict=True) is a

    def test_strict_prunes_when_scalar_strictly_better(self):
        a = sol(cost=2.0, arr=line(1, 1))
        b = sol(cost=1.0, arr=line(1, 1))
        assert prune_one(a, b, strict=True) is None

    def test_strict_function_region(self):
        # same scalars; b strictly better on x<5, tie at x=5, worse after
        a = sol(arr=line(5, 0))
        b = sol(arr=line(0, 1))
        a2 = prune_one(a, b, strict=True)
        assert a2 is not None
        assert a2.domain.contains(7.0)
        assert not a2.domain.contains(3.0)

    def test_none_arr_dominates(self):
        # no-source solution has arr = -inf: dominates any finite arr
        a = sol(arr=line(0, 0))
        b = sol(arr=None)
        assert prune_one(a, b, strict=False) is None

    def test_finite_cannot_dominate_none(self):
        a = sol(arr=None)
        b = sol(arr=line(-1000, 0))
        assert prune_one(a, b, strict=False) is a

    def test_never_q_dominates(self):
        a = sol(q=5.0)
        b = sol(q=NEVER)
        assert prune_one(a, b, strict=False) is None
        assert prune_one(b, a, strict=False) is b

    def test_disjoint_domains_no_prune(self):
        a = sol(arr=line(10, 0, 0, 4), domain=IntervalSet.single(0, 4))
        b = sol(arr=line(0, 0, 6, 9), domain=IntervalSet.single(6, 9))
        assert prune_one(a, b, strict=False) is a

    def test_diam_gate(self):
        # b better in arr but worse in diam -> no pruning anywhere
        a = sol(arr=line(5, 0), diam=line(0, 0))
        b = sol(arr=line(0, 0), diam=line(5, 0))
        assert prune_one(a, b, strict=False) is a


class TestMFSSets:
    def test_keeps_crossing_pair(self):
        # two lines crossing at x=5: both survive, with complementary domains
        a = sol(arr=line(5, 0))
        b = sol(arr=line(0, 1))
        out = mfs_pairwise([a, b])
        assert len(out) == 2
        doms = sorted((s.domain.lo, s.domain.hi) for s in out)
        assert doms[0] == pytest.approx((0.0, 5.0))
        assert doms[1] == pytest.approx((5.0, C_MAX))

    def test_removes_duplicates_keeps_one(self):
        sols = [sol(arr=line(1, 1)) for _ in range(5)]
        out = mfs_pairwise(sols)
        assert len(out) == 1

    def test_incomparable_all_survive(self):
        sols = [
            sol(cost=float(i), cap=float(10 - i), arr=line(1, 1))
            for i in range(5)
        ]
        assert len(mfs_pairwise(sols)) == 5

    def test_dnc_equivalent_coverage(self):
        rng = np.random.default_rng(5)
        sols = _random_solutions(rng, 40)
        xs = np.linspace(0, C_MAX, 21)
        pruned_pair = mfs_pairwise(sols)
        assert_mfs_sound(sols, pruned_pair, xs)
        # leaf_size=1 recurses down to single solutions: every prune is a
        # merge, none is a pairwise leaf
        for leaf_size in (1, 4):
            assert_mfs_sound(sols, mfs(sols, leaf_size=leaf_size), xs)

    def test_empty_set(self):
        assert mfs([]) == []
        assert mfs_pairwise([]) == []

    def test_single(self):
        s = sol(arr=line(1, 1))
        assert mfs([s]) == [s]

    @pytest.mark.parametrize("leaf_size", [0, -1])
    def test_leaf_size_below_one_rejected(self, leaf_size):
        # a leaf of 0 would split a one-element list into [] and itself
        # forever; the call must fail fast instead of recursing
        with pytest.raises(ValueError, match="leaf_size"):
            mfs([sol(arr=line(1, 1))], leaf_size=leaf_size)


def _random_solutions(rng, n):
    out = []
    for _ in range(n):
        arr = None
        diam = None
        if rng.random() < 0.8:
            arr = line(float(rng.uniform(0, 50)), float(rng.uniform(0, 10)))
        if rng.random() < 0.6:
            diam = line(float(rng.uniform(0, 80)), float(rng.uniform(0, 5)))
        out.append(
            sol(
                cost=float(rng.integers(0, 4)),
                cap=float(rng.choice([0.1, 0.2, 0.5])),
                q=float(rng.choice([NEVER, 10.0, 20.0, 30.0])),
                arr=arr,
                diam=diam,
            )
        )
    return out


@given(seed=st.integers(min_value=0, max_value=100_000), n=st.integers(2, 30))
@settings(max_examples=60, deadline=None)
def test_property_mfs_sound(seed, n):
    rng = np.random.default_rng(seed)
    sols = _random_solutions(rng, n)
    xs = np.linspace(0, C_MAX, 11)
    pruned = mfs(sols, leaf_size=4)
    assert len(pruned) <= len(sols)
    assert_mfs_sound(sols, pruned, xs)


@given(seed=st.integers(min_value=0, max_value=100_000), n=st.integers(2, 20))
@settings(max_examples=40, deadline=None)
def test_property_mfs_idempotent_size(seed, n):
    rng = np.random.default_rng(seed)
    sols = _random_solutions(rng, n)
    once = mfs(sols, leaf_size=4)
    twice = mfs(once, leaf_size=4)
    # a second pass may merge nothing new: same coverage, no growth
    assert len(twice) <= len(once)
    assert_mfs_sound(once, twice, np.linspace(0, C_MAX, 11))


# -- the indexed killer scan against the linear walk -------------------------
#
# ``_merge`` finds each victim's killers through per-run columns
# (docs/ALGORITHMS.md §17).  The oracle below is the linear walk it
# replaced: it must make the very same ``_prune_one_gated`` calls, in the
# same order, and so return the very same solutions.


def _linear_run_skips(front):
    n = len(front)
    nxt = [n] * n
    for i in range(n - 2, -1, -1):
        s, t = front[i], front[i + 1]
        nxt[i] = nxt[i + 1] if (s.parity, s.cost) == (t.parity, t.cost) else i + 1
    return nxt


def _linear_scan(victims, killers, strict, prescreen):
    atol = mfs_module._SCALAR_ATOL
    n = len(killers)
    nxt = _linear_run_skips(killers)
    out = []
    for s in victims:
        cur = s
        i = 0
        while i < n:
            k = killers[i]
            if k.parity != s.parity:
                if k.parity > s.parity:
                    break
                i = nxt[i]
                continue
            if k.cost > s.cost + atol:
                break
            if k.cap > s.cap + atol:
                i = nxt[i]
                continue
            if k.q <= s.q + atol:
                cur = mfs_module._prune_one_gated(cur, k, strict, prescreen)
                if cur is None:
                    break
            i += 1
        if cur is not None:
            out.append(cur)
    return out


def _linear_merge(a, b, prescreen):
    pruned_b = _linear_scan(b, a, False, prescreen)
    return _linear_scan(a, pruned_b, True, prescreen) + pruned_b


def _record_gated(monkeypatch):
    calls = []
    real = mfs_module._prune_one_gated

    def recorder(s, by, strict, prescreen):
        calls.append((s.uid, by.uid, strict))
        return real(s, by, strict, prescreen)

    monkeypatch.setattr(mfs_module, "_prune_one_gated", recorder)
    return calls


def _solution_bits(s):
    funcs = tuple(
        None if f is None else tuple(tuple(v.hex() for v in seg) for seg in f.segments)
        for f in (s.arr, s.diam)
    )
    domain = tuple((lo.hex(), hi.hex()) for lo, hi in s.domain.intervals)
    return s.uid, domain, funcs


#: Domains the generated fronts draw from, holey ones included.
_DOMAINS = (
    ((0.0, C_MAX),),
    ((0.0, 4.0), (6.0, C_MAX)),
    ((2.0, 8.0),),
    ((0.0, 3.0), (5.0, 5.0), (7.0, 9.0)),
)

_line = st.tuples(st.integers(0, 40), st.integers(0, 4))


def _holey_line(intercept, slope, domain):
    return PWL([Segment(lo, hi, float(intercept), float(slope)) for lo, hi in domain])


@st.composite
def _front_solutions(draw, max_size=24):
    """Solutions with integer-cost ties, equal caps, ``q = NEVER``, both
    parities and holey domains, sorted by the pruner's key."""
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        domain = draw(st.sampled_from(_DOMAINS))
        arr = draw(st.none() | _line)
        diam = draw(st.none() | _line)
        out.append(Solution(
            cost=float(draw(st.integers(0, 3))),
            cap=draw(st.sampled_from([0.1, 0.2, 0.2, 0.5])),
            q=draw(st.sampled_from([NEVER, NEVER, 10.0, 20.0, 30.0])),
            arr=None if arr is None else _holey_line(*arr, domain),
            diam=None if diam is None else _holey_line(*diam, domain),
            domain=IntervalSet.from_pairs(domain),
            parity=draw(st.sampled_from([0, 0, 1])),
        ))
    return sorted(out, key=lambda s: (s.parity, s.cost, s.cap, s.q, s.uid))


@given(front=_front_solutions(), cut=st.floats(0.0, 1.0), prescreen=st.booleans())
@settings(max_examples=200, deadline=None)
def test_indexed_merge_matches_linear_scan(front, cut, prescreen):
    mid = int(cut * len(front))
    a, b = front[:mid], front[mid:]
    with pytest.MonkeyPatch.context() as m:
        calls = _record_gated(m)
        want = _linear_merge(a, b, prescreen)
        linear_calls = list(calls)
        calls.clear()
        got = mfs_module._merge(a, b, prescreen)
    assert calls == linear_calls
    assert [_solution_bits(s) for s in got] == [_solution_bits(s) for s in want]


def test_indexed_merge_matches_linear_scan_on_paper_net(monkeypatch):
    """One Table II net: the same gated calls as the linear walk.

    The count is pinned too.  It was 1849 while a sorted-front sweep ran
    ahead of MFS; MFS now prunes the raw candidates, so it also sees the
    6 candidates the sweep used to drop, and gates 1855 calls."""
    tech = paper_technology()
    options = repeater_insertion_options()
    sequences = []
    with checking(False):
        for merge in (_linear_merge, mfs_module._merge):
            monkeypatch.setattr(mfs_module, "_merge", merge)
            calls = _record_gated(monkeypatch)
            insert_repeaters(paper_instance(3, 5), tech, options)
            first = {}
            sequences.append([
                (first.setdefault(v, len(first)), first.setdefault(k, len(first)), strict)
                for v, k, strict in calls
            ])
            monkeypatch.undo()
    assert sequences[0] == sequences[1]
    assert len(sequences[1]) == 1855
