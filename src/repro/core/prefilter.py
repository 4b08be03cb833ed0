"""Predictive dominance pre-filters for the MSRI candidate front.

The Fig. 4 minimal-functional-subset pruner (:mod:`repro.core.mfs`) is
exact but *regional*: deciding whether one solution beats another anywhere
requires building the dominated region as an :class:`IntervalSet` and
carving it out of the victim's domain.  Most candidate pairs never get
that far — profiling the DP shows the overwhelming majority of
``prune_one`` calls return the victim unchanged, and a further slice kills
it outright — yet the region machinery allocates intervals for every call.

This module ports the organizing idea of Shi & Li's predictive pruning
("An O(b n^2) Time Algorithm for Optimal Buffer Insertion with b Buffer
Types", PAPERS.md) onto the PWL-candidate DP: classify a candidate pair
with cheap, allocation-free arithmetic *first*, and only fall back to the
region machinery when the comparison is genuinely partial.

Two levels are provided:

* :func:`leq_status` / :func:`domain_subset` — an exact three-way
  classification (nowhere / partially / everywhere dominated) per function
  coordinate, replicating the segment arithmetic of
  :meth:`~repro.core.pwl.PWL.region_leq` without constructing a region.
  ``repro.core.mfs.prune_one`` uses it to dispatch the full-dominance and
  no-dominance cases in O(segments) time with zero allocation; the
  partial case falls through to the original exact machinery, so results
  are bit-identical by construction.  :func:`line_leq_status` is its
  single-overlap block, shared with the DP's predictive repeater stage,
  which classifies buffered candidates before building them; the
  predictive join classifies joined pairs with :func:`leq_status` itself,
  on the pieces ``join`` would build them from.
* :func:`prefilter_front` — a standalone, exact sorted-front candidate
  sweep: candidates are visited in the MFS pruner's own tie-break order
  and tested against a bounded list of earlier "killer" solutions; a
  candidate whose every coordinate is weakly dominated over its whole
  domain is certified dead (the killer, being earlier in the order, would
  have weakly pruned it — and anything it could have pruned, the killer
  also prunes).  Scalar gates here are *exact* (no tolerance slack), so a
  dropped candidate is dominated under the MFS tolerance too.  The DP
  does not run it: the predictive stages certify most dominated
  candidates before they are built, and on what is left the sweep cost
  more than it saved MFS, which returns the same front bit for bit
  without it (``docs/PRUNING.md``).

:func:`min_diam_lower_bound` supports the spec-window certificate of the
width cap (see ``docs/PRUNING.md``): the minimum of a solution's ``diam``
over its domain is a monotone lower bound on the final ARD of any
completion, because every DP transformer evaluates or shifts ``diam``
inside the current domain and only ever maxes it against other terms.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from .intervals import IntervalSet
from .pwl import PWL, _EPS
from .solution import Solution

__all__ = [
    "LEQ_EMPTY",
    "LEQ_PARTIAL",
    "LEQ_FULL",
    "leq_status",
    "line_leq_status",
    "domain_subset",
    "prefilter_front",
    "min_diam_lower_bound",
]

#: Three-way outcome of :func:`leq_status` over the common domain.
LEQ_EMPTY = 0   #: ``by <= s`` holds nowhere (or the domains are disjoint)
LEQ_PARTIAL = 1  #: holds on a proper, non-empty part
LEQ_FULL = 2    #: holds everywhere on the common domain


def line_leq_status(
    lo: float, hi: float, ai: float, asl: float, bi: float, bsl: float
) -> int:
    """Classify where ``ai + asl*x <= bi + bsl*x`` holds on ``[lo, hi]``.

    The single-overlap case of :func:`leq_status` (``lo <= hi``), and
    the one copy of its arithmetic: two endpoint differences decide the
    overlap, and numerically parallel lines whose differences straddle
    zero only by noise are classified by the midpoint.  Callers that
    know two single-segment functions without building them (the DP's
    predictive repeater stage) get :func:`leq_status`'s answer bit for
    bit.
    """
    da_lo = (ai + asl * lo) - (bi + bsl * lo)
    da_hi = (ai + asl * hi) - (bi + bsl * hi)
    if da_lo <= 0.0 and da_hi <= 0.0:
        return LEQ_FULL
    if da_lo > 0.0 and da_hi > 0.0:
        return LEQ_EMPTY
    if abs(asl - bsl) <= _EPS:
        mid = 0.5 * (lo + hi)
        if (ai + asl * mid) - (bi + bsl * mid) <= 0.0:
            return LEQ_FULL
        return LEQ_EMPTY
    return LEQ_PARTIAL


def leq_status(by_f: Optional[PWL], s_f: Optional[PWL]) -> int:
    """Classify where ``by_f <= s_f`` holds on the common domain.

    Allocation-free replica of the per-segment case analysis in
    :func:`repro.core.pwl._line_leq_region` (at ``atol=0``): each
    overlapping segment pair is *fully* inside the region, *fully*
    outside, or split by one crossing.  Any split — or any mix of inside
    and outside segments — is :data:`LEQ_PARTIAL`, which callers resolve
    with the exact region machinery.  An outside *point* overlap at the
    end of a neighbouring full overlap does not count: that overlap's
    region holds the point (:func:`_ends_full_overlap`).

    ``None`` encodes the identically ``-inf`` function (no source or no
    internal pair): ``-inf`` is below everything, nothing finite is below
    ``-inf``.
    """
    if by_f is None:
        return LEQ_FULL
    if s_f is None:
        return LEQ_EMPTY
    # manual merge over the two sorted segment lists (the _overlaps walk,
    # inlined: this is the hottest loop in the pruner).  Every difference
    # below replicates _line_leq_region's expressions operation for
    # operation — value(x) spelled as intercept + slope * x — so the
    # classification is bit-identical to the region machinery's.
    fs = by_f._segments
    gs = s_f._segments
    nf = len(fs)
    ng = len(gs)
    if nf == 1 and ng == 1:
        # single-segment pair (about half of all calls): one overlap, so
        # the loop below reduces to line_leq_status — same expressions,
        # same outcomes
        a_lo, a_hi, ai, asl = fs[0]
        b_lo, b_hi, bi, bsl = gs[0]
        lo = a_lo if a_lo > b_lo else b_lo
        hi = a_hi if a_hi < b_hi else b_hi
        if lo > hi:
            return LEQ_EMPTY
        return line_leq_status(lo, hi, ai, asl, bi, bsl)
    i = j = 0
    any_in = any_out = False
    while i < nf and j < ng:
        a_lo, a_hi, ai, asl = fs[i]
        b_lo, b_hi, bi, bsl = gs[j]
        lo = a_lo if a_lo > b_lo else b_lo
        hi = a_hi if a_hi < b_hi else b_hi
        if lo <= hi:
            da_lo = (ai + asl * lo) - (bi + bsl * lo)
            da_hi = (ai + asl * hi) - (bi + bsl * hi)
            if da_lo <= 0.0 and da_hi <= 0.0:
                if any_out:
                    return LEQ_PARTIAL
                any_in = True
            elif da_lo > 0.0 and da_hi > 0.0:
                # an "out" point that ends a neighbouring full overlap is
                # covered by that overlap's region
                if not (lo == hi and _ends_full_overlap(fs, gs, i, j, lo)):
                    if any_in:
                        return LEQ_PARTIAL
                    any_out = True
            else:
                ds = asl - bsl
                if abs(ds) <= _EPS:
                    # (numerically) parallel lines whose endpoint
                    # differences straddle zero only by noise; classify by
                    # the midpoint — _line_leq_region's disambiguation
                    mid = 0.5 * (lo + hi)
                    if (ai + asl * mid) - (bi + bsl * mid) <= 0.0:
                        if any_out:
                            return LEQ_PARTIAL
                        any_in = True
                    else:
                        if any_in:
                            return LEQ_PARTIAL
                        any_out = True
                else:
                    return LEQ_PARTIAL
        if a_hi < b_hi:
            i += 1
        else:
            j += 1
    if not any_in:
        return LEQ_EMPTY
    return LEQ_FULL if not any_out else LEQ_PARTIAL


def _ends_full_overlap(fs, gs, i: int, j: int, x: float) -> bool:
    """Whether ``x`` is an end of a non-degenerate overlap next to the
    overlap of ``fs[i]`` and ``gs[j]`` in :func:`leq_status`'s walk.

    A point overlap can sit where one function's segment ends and the
    other's next one begins, and there the two segments' lines can
    differ by an ulp.  Its region is the point, which the neighbouring
    overlap's closed region already holds when that overlap is in, so
    the region union (``region_leq``) coalesces it away.  Were the
    neighbour out or split, ``leq_status`` is not ``LEQ_FULL`` anyway.
    """
    nf = len(fs)
    ng = len(gs)
    for ii, jj in ((i - 1, j), (i, j - 1), (i + 1, j), (i, j + 1)):
        if 0 <= ii < nf and 0 <= jj < ng:
            a_lo, a_hi = fs[ii][0], fs[ii][1]
            b_lo, b_hi = gs[jj][0], gs[jj][1]
            lo = b_lo if b_lo > a_lo else a_lo
            hi = b_hi if b_hi < a_hi else a_hi
            if lo < hi and (lo == x or hi == x):
                return True
    return False


def domain_subset(a: IntervalSet, b: IntervalSet) -> bool:
    """True when ``a`` is contained in ``b`` (exact endpoint arithmetic).

    Both sets are canonical (sorted, coalesced), so containment reduces to
    a linear walk: every interval of ``a`` must sit inside one interval of
    ``b``.
    """
    bivs = b._intervals
    nb = len(bivs)
    j = 0
    for lo, hi in a._intervals:
        while j < nb and bivs[j][1] < lo:
            j += 1
        if j >= nb:
            return False
        b_lo, b_hi = bivs[j]
        if b_lo > lo or b_hi < hi:
            return False
    return True


def min_diam_lower_bound(s: Solution) -> float:
    """Minimum of ``diam`` over the solution's domain (``-inf`` if none).

    A monotone lower bound on the final ARD of any completion of ``s``
    (see module docstring); the width cap's spec-window certificate drops
    a solution only when this bound already exceeds the spec.
    """
    if s.diam is None:
        return -math.inf
    return s.diam.min_value()[1]


def prefilter_front(
    solutions: Sequence[Solution], *, max_killers: int = 24
) -> List[Solution]:
    """Drop candidates certified dominated by an earlier one in MFS order.

    A standalone exact utility; the MSRI pruner no longer calls it (see
    the module docstring).

    Candidates are swept in the MFS tie-break order ``(parity, cost, cap,
    q, uid)`` and compared against a bounded list of earlier *killers*
    (the first ``max_killers`` surviving solutions with a hole-free
    domain, so containment is an O(1) endpoint check).  A candidate is
    dropped only under a **full certificate**: the killer's scalars are
    no worse under exact comparison, its domain covers the candidate's,
    and both function coordinates are weakly dominated *everywhere* on
    the candidate's domain.

    Safety (exact mode): a dropped candidate would have been weakly
    pruned to nothing by the earlier killer inside MFS; and any region the
    candidate could have carved from a third solution is also carved by
    the killer (the killer is no worse everywhere, and being earlier in
    the order needs only weak dominance).  The surviving front is
    therefore bit-identical — the ``REPRO_CHECK`` front-equivalence
    contract re-derives this on every pruned node.
    """
    if len(solutions) <= 2:
        return list(solutions)
    ordered = sorted(
        solutions, key=lambda s: (s.parity, s.cost, s.cap, s.q, s.uid)
    )
    # killer record: (cap, q, dom_lo, dom_hi, arr, diam, parity) — plain
    # tuples keep the per-candidate scan at a few float compares
    killers: List[tuple] = []
    out: List[Solution] = []
    for s in ordered:
        dom = s.domain
        lo, hi = dom.lo, dom.hi
        s_arr = s.arr
        s_diam = s.diam
        dead = False
        for k in killers:
            # None coordinates decided inline (None = -inf is below
            # everything; nothing finite is below -inf), mirroring
            # leq_status's own encoding without the call
            if (
                k[6] == s.parity
                and k[0] <= s.cap
                and k[1] <= s.q
                and k[2] <= lo
                and hi <= k[3]
                and (k[4] is None or (
                    s_arr is not None
                    and leq_status(k[4], s_arr) == LEQ_FULL))
                and (k[5] is None or (
                    s_diam is not None
                    and leq_status(k[5], s_diam) == LEQ_FULL))
            ):
                dead = True
                break
        if dead:
            continue
        out.append(s)
        if len(killers) < max_killers and len(dom) == 1:
            killers.append((s.cap, s.q, lo, hi, s.arr, s.diam, s.parity))
    return out
