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

from typing import List, Optional, Sequence

from ..tech.terminals import NEVER
from .intervals import IntervalSet
from .prefilter import LEQ_EMPTY, LEQ_FULL, domain_subset, leq_status
from .solution import Solution

__all__ = ["prune_one", "mfs", "mfs_pairwise"]

#: Scalar slack: coordinates within this are treated as tied.
_SCALAR_ATOL = 1e-9


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
        # them inline and only pay a leq_status call for finite pairs
        by_arr = by.arr
        s_arr = s.arr
        if by_arr is None:
            arr_st = LEQ_FULL
        elif s_arr is None:
            return s  # finite is never <= -inf: LEQ_EMPTY
        else:
            arr_st = leq_status(by_arr, s_arr)
            if arr_st == LEQ_EMPTY:
                return s
        by_diam = by.diam
        s_diam = s.diam
        if by_diam is None:
            diam_st = LEQ_FULL
        elif s_diam is None:
            return s
        else:
            diam_st = leq_status(by_diam, s_diam)
            if diam_st == LEQ_EMPTY:
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


def _cost_run_skips(front: List[Solution]) -> List[int]:
    """``nxt[i]``: first index past ``i`` whose ``(parity, cost)`` differs.

    Fronts are sorted by ``(parity, cost, cap, q, uid)``, so equal
    ``(parity, cost)`` runs are contiguous and cap-ascending inside.  Run
    boundaries use exact equality on purpose: costs inside a front are
    sums of the same library costs, so equal costs are bit-equal — and a
    conservative boundary (treating near-equal costs as different runs)
    only shortens a skip, never skips a killer the gates would pass.
    """
    n = len(front)
    nxt = [n] * n
    for i in range(n - 2, -1, -1):
        s = front[i]
        t = front[i + 1]
        if s.parity == t.parity and s.cost == t.cost:  # repro: noqa[R001]
            nxt[i] = nxt[i + 1]
        else:
            nxt[i] = i + 1
    return nxt


def _merge(
    a: List[Solution], b: List[Solution], prescreen: bool
) -> List[Solution]:
    """Cross-prune two internally-minimal sets (the Fig. 4 merge step).

    Both inputs arrive sorted by the pruner's key ``(parity, cost, cap,
    q, uid)`` — :func:`mfs` pre-sorts, pruning preserves scalars, and the
    concatenation below keeps every key in ``a`` below every key in ``b``
    — so a killer scan can stop at the first killer whose parity or cost
    already fails the weak-dominance gate: every later killer fails the
    same exact comparison.  Within an equal ``(parity, cost)`` run the
    killers are cap-ascending, so the first killer failing the cap gate
    certifies the rest of its run; :func:`_cost_run_skips` lets the scan
    jump whole runs (integer library costs make them long on fat fronts).
    """
    atol = _SCALAR_ATOL
    na = len(a)
    nxt_a = _cost_run_skips(a)
    pruned_b: List[Solution] = []
    for s in b:
        cur: Optional[Solution] = s
        cp = s.parity
        climit = s.cost + atol
        ccap = s.cap + atol
        cq = s.q + atol
        i = 0
        while i < na:
            k = a[i]
            kp = k.parity
            if kp != cp:
                if kp > cp:
                    break
                i = nxt_a[i]
                continue
            if k.cost > climit:
                break
            if k.cap > ccap:
                i = nxt_a[i]
                continue
            if k.q <= cq:
                cur = _prune_one_gated(cur, k, False, prescreen)
                if cur is None:
                    break
            i += 1
        if cur is not None:
            pruned_b.append(cur)
    npb = len(pruned_b)
    nxt_pb = _cost_run_skips(pruned_b)
    pruned_a: List[Solution] = []
    for s in a:
        cur = s
        cp = s.parity
        climit = s.cost + atol
        ccap = s.cap + atol
        cq = s.q + atol
        i = 0
        while i < npb:
            k = pruned_b[i]
            kp = k.parity
            if kp != cp:
                if kp > cp:
                    break
                i = nxt_pb[i]
                continue
            if k.cost > climit:
                break
            if k.cap > ccap:
                i = nxt_pb[i]
                continue
            if k.q <= cq:
                cur = _prune_one_gated(cur, k, True, prescreen)
                if cur is None:
                    break
            i += 1
        if cur is not None:
            pruned_a.append(cur)
    return pruned_a + pruned_b


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
