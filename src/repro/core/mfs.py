"""Minimal functional subset (MFS) pruning — paper Sec. IV-D, Fig. 4.

In scalar multidimensional dynamic programming one keeps the *minima* of the
solution set under component-wise dominance (Definition 4.2, the classic
point-dominance problem of Kung–Luccio–Preparata).  Here two of the five
coordinates are *functions* of the external capacitance ``c_E``, so a
solution may be dominated for some values of ``c_E`` and uniquely optimal
for others.  The paper's answer (Definition 4.3) is the minimal functional
subset: for each solution, delete the regions of the domain where some other
solution is no worse in every coordinate, and drop solutions whose domain
empties out.

The fundamental operation — detect all ranges of ``c_E`` where ``s2``
dominates ``s1`` and carve them from ``s1``'s domain — runs in time linear
in the number of participating PWL segments (scalar gates first, then one
``region_leq`` per function coordinate, then an interval intersection).

Tie handling: identical solutions would annihilate each other under naive
mutual weak pruning.  We process pruning asymmetrically — an *earlier*
solution prunes a later one wherever it is weakly no worse, while a later
solution prunes an earlier one only where it is *strictly* better in at
least one coordinate.  Under this rule, for every ``c_E`` the first-listed
optimum always survives, which is exactly what the DP's correctness needs.

Two strategies are provided:

* :func:`mfs_pairwise` — the straightforward O(|S|^2) incremental filter;
* :func:`mfs` — the paper's divide-and-conquer (Fig. 4): recursively prune
  both halves, then cross-prune.  Suboptimal solutions tend to die in deep
  recursion levels, avoiding many comparisons at the top; the worst case
  remains quadratic in pairwise comparisons (as the paper notes).

Both accept ``prescreen`` (default on): before building any region,
:func:`prune_one` classifies the pair with the allocation-free Shi–Li
style predictive comparison (:mod:`repro.core.prefilter`) and resolves
the no-dominance and everywhere-dominance cases directly; only genuinely
partial comparisons pay for the interval machinery.  The classification
replicates the region arithmetic exactly, so results are bit-identical
with the prescreen on or off (``docs/PRUNING.md``).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from ..tech.terminals import NEVER
from .intervals import IntervalSet
from .prefilter import LEQ_EMPTY, LEQ_FULL, domain_subset, leq_status
from .solution import Solution

__all__ = ["prune_one", "mfs", "mfs_pairwise"]

#: Scalar slack: coordinates within this are treated as tied.
_SCALAR_ATOL = 1e-9

#: One equal-``(parity, cost)`` run of a front: ``(cost, start, caps, qs,
#: qmin)`` (:func:`_killer_index`).
_Run = Tuple[float, int, List[float], List[float], List[float]]


def _scalars_weakly_dominate(by: Solution, s: Solution) -> bool:
    """All three scalar coordinates of ``by`` are <= those of ``s``.

    Solutions of different inversion parity are functionally distinct and
    never comparable (inverter extension).
    """
    return (
        by.parity == s.parity
        and by.cost <= s.cost + _SCALAR_ATOL
        and by.cap <= s.cap + _SCALAR_ATOL
        and by.q <= s.q + _SCALAR_ATOL
    )


def _scalars_strictly_better_somewhere(by: Solution, s: Solution) -> bool:
    return (
        by.cost < s.cost - _SCALAR_ATOL
        or by.cap < s.cap - _SCALAR_ATOL
        or (by.q < s.q - _SCALAR_ATOL and not (by.q == NEVER and s.q == NEVER))
    )


def _function_leq_region(by_f, s_f, common: IntervalSet) -> IntervalSet:
    """Region of ``common`` where coordinate ``by_f`` is <= ``s_f``.

    ``None`` encodes the function being identically ``-inf`` (no source /
    no internal pair): ``-inf`` is <= anything, and nothing finite is
    <= ``-inf``.
    """
    if by_f is None:
        return common
    if s_f is None:
        return IntervalSet.empty()
    return by_f.region_leq(s_f).intersect(common)


def _function_lt_region(by_f, s_f, common: IntervalSet) -> IntervalSet:
    """Region of ``common`` where ``by_f`` is strictly below ``s_f``."""
    if s_f is None:
        return IntervalSet.empty()
    if by_f is None:
        return common  # -inf < finite everywhere they are both defined
    return by_f.region_lt(s_f).intersect(common)


def prune_one(
    s: Solution, by: Solution, *, strict: bool, prescreen: bool = True
) -> Optional[Solution]:
    """Remove from ``s`` the domain region where ``by`` dominates it.

    With ``strict=False`` dominance is weak (ties count); with
    ``strict=True`` the challenger must additionally be strictly better in
    at least one coordinate at the point.  Returns the surviving solution
    (possibly ``s`` unchanged) or None when nothing survives.

    ``prescreen`` short-circuits the two overwhelmingly common cases —
    ``by`` dominates nowhere, or everywhere — with the allocation-free
    classification of :func:`repro.core.prefilter.leq_status`; the result
    is identical either way (the classification replicates the region
    arithmetic), the flag only exists so ablations and contracts can run
    the pure Fig. 4 machinery.
    """
    if not _scalars_weakly_dominate(by, s):
        return s
    return _prune_one_gated(s, by, strict, prescreen)


def _prune_one_gated(
    s: Solution, by: Solution, strict: bool, prescreen: bool
) -> Optional[Solution]:
    """:func:`prune_one` body for callers that already ran the scalar gate.

    The pairwise and merge loops gate on the exact same comparisons as
    :func:`_scalars_weakly_dominate` before every call, so re-checking
    here would only burn time on the hottest path.
    """
    if prescreen:
        # None coordinates (identically -inf) dominate the call mix; decide
        # them inline and only pay a leq_status call for finite pairs.
        # diam goes first: it rules out more of the comparisons that come
        # to nothing, and either early return gives the same answer.
        by_diam = by.diam
        s_diam = s.diam
        if by_diam is None:
            diam_st = LEQ_FULL
        elif s_diam is None:
            return s  # finite is never <= -inf: LEQ_EMPTY
        else:
            diam_st = leq_status(by_diam, s_diam)
            if diam_st == LEQ_EMPTY:
                return s
        by_arr = by.arr
        s_arr = s.arr
        if by_arr is None:
            arr_st = LEQ_FULL
        elif s_arr is None:
            return s
        else:
            arr_st = leq_status(by_arr, s_arr)
            if arr_st == LEQ_EMPTY:
                return s
        # when the victim's domain is contained in the killer's, the
        # intersection *is* the victim's domain — an allocation-free walk
        # replaces building the interval set
        contained = domain_subset(s.domain, by.domain)
        if contained:
            common = s.domain
        else:
            common = s.domain.intersect(by.domain)
            if common.is_empty:
                return s
        if arr_st == LEQ_FULL and diam_st == LEQ_FULL and (
            not strict or _scalars_strictly_better_somewhere(by, s)
        ):
            # dominated on the whole common domain: the region is exactly
            # the domain intersection, so skip the per-coordinate regions
            if contained:
                return None  # survivor = s.domain - s.domain = empty
            survivor = s.domain.difference(common)
            if survivor.is_empty:
                return None
            if survivor == s.domain:
                return s
            return s.restricted(survivor)
        # mixed case: a FULL coordinate's region is the whole common
        # domain (the functions cover both solutions' domains), so only
        # the PARTIAL coordinate pays for the region machinery
        if arr_st == LEQ_FULL:
            region = common
        else:
            region = _function_leq_region(by.arr, s.arr, common)
            if region.is_empty:
                return s
        if diam_st != LEQ_FULL:
            region = _function_leq_region(by.diam, s.diam, region)
            if region.is_empty:
                return s
    else:
        common = s.domain.intersect(by.domain)
        if common.is_empty:
            return s
        region = _function_leq_region(by.arr, s.arr, common)
        if region.is_empty:
            return s
        region = _function_leq_region(by.diam, s.diam, region)
        if region.is_empty:
            return s

    if strict and not _scalars_strictly_better_somewhere(by, s):
        strict_region = _function_lt_region(by.arr, s.arr, common).union(
            _function_lt_region(by.diam, s.diam, common)
        )
        region = region.intersect(strict_region)
        if region.is_empty:
            return s

    survivor = s.domain.difference(region)
    if survivor.is_empty:
        return None
    if survivor == s.domain:
        return s
    return s.restricted(survivor)


def mfs_pairwise(
    solutions: Sequence[Solution], *, prescreen: bool = True
) -> List[Solution]:
    """Incremental O(n^2) minimal-functional-subset computation.

    Earlier solutions get weak-pruning priority over later ones, so the
    result is order-dependent in the presence of exact ties (but always a
    valid MFS: every point of the domain keeps one of its optima).
    """
    kept: List[Solution] = []
    atol = _SCALAR_ATOL
    for cand in solutions:
        c: Optional[Solution] = cand
        for k in kept:
            # inlined scalar gate (hot path): k can only prune c when all
            # three of its scalars are no worse
            if (k.parity == c.parity and k.cost <= c.cost + atol
                    and k.cap <= c.cap + atol and k.q <= c.q + atol):
                c = _prune_one_gated(c, k, False, prescreen)
                if c is None:
                    break
        if c is None:
            continue
        changed = False
        next_kept: List[Solution] = []
        for k in kept:
            if (c.parity == k.parity and c.cost <= k.cost + atol
                    and c.cap <= k.cap + atol and c.q <= k.q + atol):
                k2 = _prune_one_gated(k, c, True, prescreen)
            else:
                k2 = k
            if k2 is not None:
                next_kept.append(k2)
            if k2 is not k:
                changed = True
        next_kept.append(c)
        kept = next_kept if changed else kept + [c]
    return kept


def _killer_index(front: List[Solution]) -> Dict[int, List[_Run]]:
    """Index a sorted front's equal-``(parity, cost)`` runs, per parity.

    Fronts are sorted by ``(parity, cost, cap, q, uid)``, so each run is
    contiguous and cap-ascending.  A run is ``(cost, start, caps, qs,
    qmin)``: ``caps`` and ``qs`` are its columns and ``qmin[j]`` is the
    least ``q`` among its first ``j + 1`` members.  Run boundaries use
    exact equality on purpose: costs inside a front are sums of the same
    library costs, so equal costs are bit-equal, and splitting near-equal
    costs into two runs changes no gate (docs/ALGORITHMS.md §17).
    """
    index: Dict[int, List[_Run]] = {}
    n = len(front)
    i = 0
    while i < n:
        s = front[i]
        parity = s.parity
        cost = s.cost
        caps = [s.cap]
        qs = [s.q]
        qmin = [s.q]
        low = s.q
        j = i + 1
        while j < n:
            k = front[j]
            if k.parity != parity or k.cost != cost:  # repro: noqa[R001]
                break
            q = k.q
            caps.append(k.cap)
            qs.append(q)
            if q < low:
                low = q
            qmin.append(low)
            j += 1
        index.setdefault(parity, []).append((cost, i, caps, qs, qmin))
        i = j
    return index


def _scan(
    victims: List[Solution],
    killers: List[Solution],
    strict: bool,
    prescreen: bool,
) -> List[Solution]:
    """Prune every victim by the killers its scalars admit, in index order.

    The killers of ``s`` are those of its parity with cost, cap and
    ``q`` each at most ``s``'s plus ``_SCALAR_ATOL``.  Costs ascend
    across a parity's runs, so the scan stops at the first run above the
    cost gate; caps ascend inside a run, so one bisect finds the cap
    gate's prefix; and ``qmin`` is non-increasing, so the killers passing
    the ``q`` gate all sit in the tail of that prefix where ``qmin`` is
    still at most ``s.q + atol``.  Walking that tail forward visits the
    same killers, in the same order, as a linear walk of the front.
    """
    atol = _SCALAR_ATOL
    index = _killer_index(killers)
    survivors: List[Solution] = []
    for s in victims:
        cur: Optional[Solution] = s
        climit = s.cost + atol
        ccap = s.cap + atol
        cq = s.q + atol
        for cost, start, caps, qs, qmin in index.get(s.parity, ()):
            if cost > climit:
                break
            end = bisect_right(caps, ccap)
            j = end
            while j and qmin[j - 1] <= cq:
                j -= 1
            while j < end:
                if qs[j] <= cq:
                    cur = _prune_one_gated(cur, killers[start + j], strict, prescreen)
                    if cur is None:
                        break
                j += 1
            if cur is None:
                break
        if cur is not None:
            survivors.append(cur)
    return survivors


def _merge(
    a: List[Solution], b: List[Solution], prescreen: bool
) -> List[Solution]:
    """Cross-prune two internally-minimal sets (the Fig. 4 merge step).

    Both inputs arrive sorted by the pruner's key ``(parity, cost, cap,
    q, uid)`` — :func:`mfs` pre-sorts, pruning preserves scalars, and the
    concatenation below keeps every key in ``a`` below every key in ``b``.
    ``b`` is pruned weakly by ``a``, then ``a`` strictly by what is left
    of ``b``.  Each side finds a victim's killers through
    :func:`_killer_index`, the killer front's per-run columns, instead of
    testing the scalar gates on every killer (docs/ALGORITHMS.md §17).
    """
    pruned_b = _scan(b, a, False, prescreen)
    return _scan(a, pruned_b, True, prescreen) + pruned_b


def mfs(
    solutions: Sequence[Solution],
    *,
    leaf_size: int = 8,
    prescreen: bool = True,
) -> List[Solution]:
    """Divide-and-conquer MFS (paper Fig. 4).

    Splits the set, recursively minimizes both halves, and merges by
    cross-pruning; suboptimal solutions are mostly eliminated deep in the
    recursion where comparisons are cheap.  Solutions are pre-sorted by
    their scalar coordinates (the paper's Sec. V organizational suggestion:
    "maintaining solution sets in sorted order by cost and secondarily by
    capacitance"), which makes weak kills land early.

    ``leaf_size`` (at least 1) is the set size below which the recursion
    falls back to the pairwise filter.
    """
    if leaf_size < 1:
        raise ValueError(f"mfs leaf_size must be >= 1, got {leaf_size}")
    ordered = sorted(solutions, key=lambda s: (s.parity, s.cost, s.cap, s.q, s.uid))
    return _mfs_rec(ordered, leaf_size, prescreen)


def _mfs_rec(
    solutions: Sequence[Solution], leaf_size: int, prescreen: bool
) -> List[Solution]:
    if len(solutions) <= leaf_size:
        return mfs_pairwise(solutions, prescreen=prescreen)
    mid = len(solutions) // 2
    left = _mfs_rec(solutions[:mid], leaf_size, prescreen)
    right = _mfs_rec(solutions[mid:], leaf_size, prescreen)
    return _merge(left, right, prescreen)
