"""Solution characterization and combinators for multisource DP (Sec. IV).

A candidate repeater assignment to a subtree ``T_v`` is characterized by
(paper Sec. IV-B):

* ``cost``  — scalar; total cost of repeaters (and sized drivers) used;
* ``cap``   — scalar; capacitance of the subtree as seen from above;
* ``q``     — scalar; maximum augmented delay from ``v`` to sinks in ``T_v``
  (``-inf`` when the subtree holds no sink);
* ``arr``   — PWL in the external capacitance ``c_E``: maximum augmented
  arrival time at ``v`` from sources in ``T_v`` (``None`` when no source);
* ``diam``  — PWL in ``c_E``: maximum augmented RC-diameter over
  source/sink pairs internal to ``T_v`` (``None`` when no pair).

``arr`` and ``diam`` are functions of ``c_E`` because a source inside the
subtree drives *through* ``v`` into the unknown outside world: the external
capacitance multiplies the accumulated path resistance (the PWL slopes), and
the identity of the critical source can flip as ``c_E`` grows (the paper's
Fig. 3).

This module provides the five solution transformers the DP needs — leaf
construction, wire augmentation (Fig. 10), joining at a branch (Fig. 7),
repeater application (Fig. 8), and root evaluation (Fig. 9) — each a direct
transcription of the paper's subroutine, implemented with the PWL
primitives of Eq. (3).

``domain`` tracks where (in ``c_E``) the solution is still potentially
useful; minimal-functional-subset pruning (``repro.core.mfs``) carves holes
into it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..tech.buffers import Repeater
from ..tech.terminals import NEVER, Terminal
from .intervals import IntervalSet
from .pwl import (
    PWL,
    Segment,
    _add_linear,
    _combined,
    _pwl,
    _shifted_into,
)

__all__ = [
    "Placement",
    "Trace",
    "Solution",
    "leaf_solution",
    "augment_wire",
    "join",
    "join_pieces",
    "apply_repeater",
    "buffered_summary",
    "RootSolution",
    "evaluate_at_root",
]

_ids = itertools.count()

#: ``(domain, arr, diam)`` of a joined solution (:func:`join_pieces`).
JoinPieces = Tuple[IntervalSet, Optional[PWL], Optional[PWL]]


@dataclass(frozen=True)
class Placement:
    """One decision recorded in a solution's provenance: ``what`` went where.

    ``what`` is a :class:`~repro.tech.buffers.Repeater` (A-side facing the
    root) for insertion points, or a driver-sizing option for terminals.
    """

    node: int
    what: object


class Trace:
    """Immutable provenance DAG; reconstructs the assignment of a solution.

    Solutions share trace prefixes, so recording a placement is O(1) and the
    full assignment is only materialized for the solutions a caller keeps.
    """

    __slots__ = ("placement", "parents")

    def __init__(
        self,
        placement: Optional[Placement] = None,
        parents: Tuple["Trace", ...] = (),
    ):
        self.placement = placement
        self.parents = parents

    def collect(self) -> List[Placement]:
        """All placements reachable from this trace node."""
        out: List[Placement] = []
        stack = [self]
        seen = set()
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            if t.placement is not None:
                out.append(t.placement)
            stack.extend(t.parents)
        return out

    def extended(self, placement: Placement) -> "Trace":
        return Trace(placement, (self,))

    @staticmethod
    def merged(a: "Trace", b: "Trace") -> "Trace":
        return Trace(None, (a, b))


_EMPTY_TRACE = Trace()


@dataclass(frozen=True, slots=True)
class Solution:
    """One DP subsolution (see module docstring for field semantics).

    ``uid`` breaks ties deterministically during pruning.  Invariants:
    ``arr``/``diam`` are either ``None`` or defined exactly on ``domain``.

    ``parity`` supports the paper's Sec. V extension ("the use of inverters
    as repeaters is possible and straightforward"): on a bus, every
    source-sink path must cross an even number of inverters, which on a
    tree is equivalent to *all terminals sharing one inversion parity
    relative to the root* — so a single bit per subtree suffices.  An
    inverting repeater flips it; joining subtrees requires agreement; the
    root accepts only parity 0.  Solutions of different parity are
    incomparable during pruning.
    """

    cost: float
    cap: float
    q: float
    arr: Optional[PWL]
    diam: Optional[PWL]
    domain: IntervalSet
    trace: Trace = _EMPTY_TRACE
    parity: int = 0
    uid: int = -1

    def __post_init__(self) -> None:
        if self.uid < 0:
            object.__setattr__(self, "uid", next(_ids))

    @property
    def has_source(self) -> bool:
        return self.arr is not None

    @property
    def has_sink(self) -> bool:
        return self.q != NEVER

    def restricted(self, region: IntervalSet) -> Optional["Solution"]:
        """The same solution valid only on ``region``; None if nowhere."""
        new_domain = self.domain.intersect(region)
        if new_domain.is_empty:
            return None
        if new_domain == self.domain:
            return self
        return _solution(
            self.cost,
            self.cap,
            self.q,
            self.arr.restrict(new_domain) if self.arr is not None else None,
            self.diam.restrict(new_domain) if self.diam is not None else None,
            new_domain,
            self.trace,
            self.parity,
            self.uid,
        )

    def check_invariants(self) -> None:
        """Debug helper: verify function domains track the solution domain."""
        for f in (self.arr, self.diam):
            if f is not None and not f.domain().approx_equal(self.domain):
                raise AssertionError(
                    f"solution {self.uid}: function domain {f.domain()!r} "
                    f"!= solution domain {self.domain!r}"
                )
        if self.cap < 0 or self.cost < 0:
            raise AssertionError("negative cap or cost")

    def describe(self) -> str:
        """Compact human-readable summary."""
        arr = f"{self.arr.num_segments}seg" if self.arr is not None else "-"
        diam = f"{self.diam.num_segments}seg" if self.diam is not None else "-"
        q = "-" if self.q == NEVER else f"{self.q:.1f}"
        return (
            f"Solution(cost={self.cost:g}, cap={self.cap:.4f}, q={q}, "
            f"arr={arr}, diam={diam}, dom={len(self.domain)}iv)"
        )


_new_solution = object.__new__
_set_cost = Solution.__dict__["cost"].__set__
_set_cap = Solution.__dict__["cap"].__set__
_set_q = Solution.__dict__["q"].__set__
_set_arr = Solution.__dict__["arr"].__set__
_set_diam = Solution.__dict__["diam"].__set__
_set_domain = Solution.__dict__["domain"].__set__
_set_trace = Solution.__dict__["trace"].__set__
_set_parity = Solution.__dict__["parity"].__set__
_set_uid = Solution.__dict__["uid"].__set__


def _solution(
    cost: float,
    cap: float,
    q: float,
    arr: Optional[PWL],
    diam: Optional[PWL],
    domain: IntervalSet,
    trace: Trace,
    parity: int,
    uid: int = -1,
) -> Solution:
    """``Solution(...)`` with its slots written through their descriptors.

    A frozen dataclass sets each field with ``object.__setattr__``, which
    is most of the constructor's cost.  The uid rule is the
    constructor's: a fresh ``next(_ids)`` unless ``uid`` is given.
    """
    s = _new_solution(Solution)
    _set_cost(s, cost)
    _set_cap(s, cap)
    _set_q(s, q)
    _set_arr(s, arr)
    _set_diam(s, diam)
    _set_domain(s, domain)
    _set_trace(s, trace)
    _set_parity(s, parity)
    _set_uid(s, next(_ids) if uid < 0 else uid)
    return s


# -- LeafSolutions (Fig. 6) ------------------------------------------------------


def leaf_solution(
    terminal: Terminal,
    c_max: float,
    *,
    cost: float = 0.0,
    trace: Trace = _EMPTY_TRACE,
) -> Solution:
    """The (single) solution for a leaf terminal.

    The terminal presents ``c(v)`` to the net; as a source its arrival
    function is ``alpha + intrinsic + r * (c(v) + c_E)`` — the driver sees
    its own input capacitance plus everything external; as a sink it
    contributes ``q = beta``.
    """
    arr = None
    if terminal.is_source:
        intercept = (
            terminal.arrival_time
            + terminal.intrinsic_delay
            + terminal.resistance * terminal.capacitance
        )
        arr = PWL.linear(intercept, terminal.resistance, 0.0, c_max)
    q = terminal.downstream_delay if terminal.is_sink else NEVER
    return _solution(
        cost,
        terminal.capacitance,
        q,
        arr,
        None,
        IntervalSet.single(0.0, c_max),
        trace,
        0,
    )


# -- Augment (Fig. 10): extend a subtree by the wire to its parent ----------------


def augment_wire(
    sol: Solution,
    resistance: float,
    capacitance: float,
    c_max: float,
    *,
    extra_cost: float = 0.0,
    trace_placement: Optional[Placement] = None,
) -> Optional[Solution]:
    """Solution for the subtree plus the wire ``(v, parent)``.

    Downward: the wire adds ``R*(C/2 + cap)`` to every root-to-sink path.
    Upward: sources now see the wire capacitance as part of the outside
    world (domain shift by ``C``) plus the wire's own Elmore term
    ``R*(C/2 + c_E)``, which adds slope ``R`` to the arrival function.
    Internal paths only feel the extra external capacitance (pure shift).

    ``extra_cost``/``trace_placement`` support the wire-sizing extension:
    a sized segment charges its area and records the chosen width class.

    Returns None when the shifted domain becomes empty (cannot happen when
    ``c_max`` bounds the whole net's capacitance, but guarded for safety).
    """
    if resistance < 0.0 or capacitance < 0.0:
        raise ValueError("wire parameters must be non-negative")
    new_domain = sol.domain.shift_clamp(-capacitance, 0.0, c_max)
    if new_domain.is_empty:
        return None
    q = sol.q
    if q != NEVER:
        q = q + resistance * (0.5 * capacitance + sol.cap)
    arr = None
    if sol.arr is not None:
        arr = sol.arr.shift_into(
            capacitance, new_domain, (resistance * 0.5 * capacitance, resistance)
        )
        if arr.is_empty:
            return None
    diam = None
    if sol.diam is not None:
        diam = sol.diam.shift_into(capacitance, new_domain)
        if diam.is_empty:
            return None
    trace = sol.trace
    if trace_placement is not None:
        trace = trace.extended(trace_placement)
    return _solution(
        sol.cost + extra_cost,
        sol.cap + capacitance,
        q,
        arr,
        diam,
        new_domain,
        trace,
        sol.parity,
    )


# -- JoinSets (Fig. 7): merge two child subtrees at a branch point ----------------


def join(
    s1: Solution,
    s2: Solution,
    c_max: float,
    pieces: Optional[JoinPieces] = None,
) -> Optional[Solution]:
    """Combine sibling solutions at their common branch vertex.

    Each side's sources now additionally see the other side's capacitance
    (domain substitution ``c_E -> c_E + cap_other``); new internal
    source/sink pairs arise across the branch, pairing one side's arrival
    function with the other side's ``q``.

    Returns None for parity-incompatible sides (inverter extension): a
    cross-branch path would see an odd number of inversions.  ``pieces``
    is :func:`join_pieces` of the same pair, when the caller already has
    it.
    """
    if s1.parity != s2.parity:
        return None
    if pieces is None:
        pieces = join_pieces(s1, s2, c_max)
        if pieces is None:
            return None
    domain, arr, diam = pieces
    return _solution(
        s1.cost + s2.cost,
        s1.cap + s2.cap,
        max(s1.q, s2.q),
        arr,
        diam,
        domain,
        Trace.merged(s1.trace, s2.trace),
        s1.parity,
    )


def join_pieces(s1: Solution, s2: Solution, c_max: float) -> Optional[JoinPieces]:
    """The ``(domain, arr, diam)`` of :func:`join`'s result, or None when
    there is none (parity is not checked).

    The stages run on canonical segment tuples, and the functions are
    built once, at the end.  The DP's predictive join classifies these
    pieces before it decides to build the pair (docs/ALGORITHMS.md §16).
    """
    domain = s1.domain.shift_clamp(-s2.cap, 0.0, c_max, meet=(s2.domain, -s1.cap))
    if domain.is_empty:
        return None
    arr1 = arr2 = None
    if s1.arr is not None:
        arr1 = _shifted_into(s1.arr._segments, s2.cap, domain)
        if not arr1:
            return None
    if s2.arr is not None:
        arr2 = _shifted_into(s2.arr._segments, s1.cap, domain)
        if not arr2:
            return None
    # diam: both sides' own pairs, shifted, and the new cross-branch
    # pairs, one side's arrival plus the other side's q
    terms: List[Tuple[Segment, ...]] = []
    if s1.diam is not None:
        terms.append(_shifted_into(s1.diam._segments, s2.cap, domain))
    if s2.diam is not None:
        terms.append(_shifted_into(s2.diam._segments, s1.cap, domain))
    if arr1 is not None and s2.q != NEVER:
        terms.append(_add_linear(arr1, s2.q, None))
    if arr2 is not None and s1.q != NEVER:
        terms.append(_add_linear(arr2, s1.q, None))
    if not all(terms):
        return None
    diam = None
    for term in terms:
        diam = term if diam is None else _combined(diam, term, True)
    if arr1 is None:
        arr = arr2
    elif arr2 is None:
        arr = arr1
    else:
        arr = _combined(arr1, arr2, True)
    return (
        domain,
        None if arr is None else _pwl(arr),
        None if diam is None else _pwl(diam),
    )


# -- RepeaterSolutions (Fig. 8) -----------------------------------------------------


def apply_repeater(
    sol: Solution, rep: Repeater, node: int, c_max: float
) -> Optional[Solution]:
    """Place ``rep`` at the subtree root (A-side facing the tree root).

    The repeater *decouples*: the outside now sees only ``c_a``; the inside
    sees exactly ``c_b``, so the arrival function collapses to the scalar
    ``arr(c_b)`` and restarts as a fresh line with slope ``r_ba``; the
    internal diameter freezes at ``diam(c_b)``; downstream delay gains the
    A→B buffer driving the (now fixed) subtree load.

    Returns None when the solution was pruned at ``c_E = c_b`` (another
    solution dominates there and will receive this repeater instead).
    """
    summary = buffered_summary(sol, rep)
    if summary is None:
        return None
    cost, q, arr_0, diam_b = summary
    arr = None
    if arr_0 is not None:
        arr = PWL.linear(arr_0, rep.r_ba, 0.0, c_max)
    diam = None
    if diam_b is not None:
        diam = PWL.constant(diam_b, 0.0, c_max)
    return _solution(
        cost,
        rep.c_a,
        q,
        arr,
        diam,
        IntervalSet.single(0.0, c_max),
        sol.trace.extended(Placement(node, rep)),
        sol.parity ^ (1 if rep.is_inverting else 0),
    )


def buffered_summary(
    sol: Solution, rep: Repeater
) -> Optional[Tuple[float, float, Optional[float], Optional[float]]]:
    """The scalars that tell :func:`apply_repeater`'s results apart.

    Every solution buffered by ``rep`` has cap ``c_a``, domain ``[0,
    c_max]`` and an ``arr`` slope of ``r_ba``, and its ``diam`` is
    constant.  So it is fixed by ``(cost, q, arr(0), diam)``: ``arr(0)``
    is the intercept ``arr(c_b) + d_ba``, and ``arr(0)``/``diam`` are
    None where the solution has no source / no internal pair.  Returns
    None exactly when :func:`apply_repeater` does.
    """
    if not sol.domain.contains(rep.c_b, atol=1e-12):
        return None
    q = sol.q
    if q != NEVER:
        q = rep.d_ab + rep.r_ab * sol.cap + sol.q
    arr_0 = None
    if sol.arr is not None:
        arr_0 = sol.arr.evaluate(rep.c_b) + rep.d_ba
    diam_b = None
    if sol.diam is not None:
        diam_b = sol.diam.evaluate(rep.c_b)
    return sol.cost + rep.cost, q, arr_0, diam_b


# -- RootSolutions (Fig. 9) -----------------------------------------------------------


@dataclass(frozen=True)
class RootSolution:
    """A complete net solution: scalar cost and ARD plus its assignment."""

    cost: float
    ard: float
    trace: Trace

    def assignment(self) -> Dict[int, object]:
        """Node index -> placed object (repeater or driver option)."""
        return {p.node: p.what for p in self.trace.collect()}

    def repeater_count(self) -> int:
        return sum(1 for p in self.trace.collect() if isinstance(p.what, Repeater))


def evaluate_at_root(
    sol: Solution,
    root_node: int,
    terminal: Terminal,
    *,
    extra_cost: float = 0.0,
    capacitance: Optional[float] = None,
    resistance: Optional[float] = None,
    intrinsic: Optional[float] = None,
    arrival_penalty: float = 0.0,
    sink_delay_extra: float = 0.0,
    trace_placement: Optional[Placement] = None,
) -> Optional[RootSolution]:
    """Close a solution at the root terminal, producing (cost, ARD).

    The solution covers everything except the root terminal itself, so the
    external capacitance finally becomes known: the root's input capacitance.
    The keyword overrides support driver sizing at the root (a sized root
    driver changes the capacitance/resistance and adds cost); with none
    given, the terminal's own parameters apply.

    ARD candidates (paper Fig. 9):

    * internal pairs: ``diam(c_root)``;
    * root as sink:   ``arr(c_root) + beta(root)``;
    * root as source: ``alpha + intrinsic + r*(c_root + cap) + q``.

    Returns None when the solution was pruned at ``c_E = c_root`` or offers
    no source/sink pair at all.
    """
    c_root = terminal.capacitance if capacitance is None else capacitance
    r_root = terminal.resistance if resistance is None else resistance
    d_root = terminal.intrinsic_delay if intrinsic is None else intrinsic

    if sol.parity != 0:
        # some terminal would receive inverted data (inverter extension)
        return None
    if not sol.domain.contains(c_root, atol=1e-12):
        return None

    ard = NEVER
    if sol.diam is not None:
        ard = max(ard, sol.diam.evaluate(c_root))
    if terminal.is_sink and sol.arr is not None:
        ard = max(
            ard,
            sol.arr.evaluate(c_root) + terminal.downstream_delay + sink_delay_extra,
        )
    if terminal.is_source and sol.q != NEVER:
        ard = max(
            ard,
            terminal.arrival_time
            + arrival_penalty
            + d_root
            + r_root * (c_root + sol.cap)
            + sol.q,
        )
    if ard == NEVER:
        return None
    trace = sol.trace
    if trace_placement is not None:
        trace = trace.extended(trace_placement)
    return RootSolution(cost=sol.cost + extra_cost, ard=ard, trace=trace)
