"""The Fig. 2 record algebra: subtree records as linear functions of load.

The paper's Fig. 2 algorithm computes the augmented RC-diameter in one
linear pass.  To make that pass *editable* — re-run after a local edit
without touching the rest of the tree — the per-subtree state must be a
function of the subtree alone.

The obstacle is that the scalar per-subtree quantities (arrival ``a(v)``,
diameter ``z(v)``) are **not** functions of the subtree alone: a source
inside ``T_v`` drives the whole net, so its Elmore terms include the
capacitance *outside* the subtree, and a single edit anywhere invalidates
scalar caches tree-wide.  The fix is to store each subtree's candidates as
**linear functions of the external load** ``t_v`` (the Eq. 2 quantity —
everything above ``v``'s parent edge, the wire itself excluded):

* ``ups``    — arrival candidates ``(base, slope, source)`` with value
  ``base + slope · t_v`` measured on the parent side of ``v``;
* ``req``    — the required time ``d(v)``, a genuine subtree-local scalar;
* ``diams``  — diameter candidates ``(base, slope, (source, sink))``: an
  internal pair's up-leg still sees the external load, so ``z(v)`` is
  linear in ``t_v`` too (slope 0 once a repeater decouples the path);
* ``down``   — the Eq. 1 subtree load.

So defined, a record is a pure function of subtree-local state (its own
wire, terminal, repeater, and children's records), which makes dirty
tracking exact: an edit at ``v`` invalidates the records on the root path
of ``v`` and nothing else.  :class:`~repro.rctree.flat.FlatARDEngine`, the
editable engine, re-propagates exactly those root paths over its flat
columns.

Candidate fronts stay small through upper-envelope (Pareto) pruning on the
domain ``t ≥ 0``: a candidate whose base *and* slope are both dominated can
never win the max.  In practice deeper sources dominate shallower ones on
the same path, collapsing the front to a handful of entries.

This module is the reference implementation of that algebra:
:func:`repro.core.ard.compute_ard` runs it for its full pass (evaluating
the records at the analyzer's Eq. 2 loads to fill the legacy per-node
timing table), and the flat kernel is a port of it that must agree
**bit-identically** — the REPRO_CHECK contract
(:func:`repro.check.contracts.verify_flat_consistency`) replays this
module's :func:`build_records` / :func:`finish_root` after every flat
evaluation.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from ..tech.buffers import Repeater
from ..tech.parameters import Technology
from ..tech.terminals import NEVER, Terminal
from .engine import EvalContext, SubtreeTiming
from .topology import NodeKind, RoutingTree

__all__ = [
    "EvalState",
    "SubtreeRecord",
    "build_records",
    "record_for",
    "finish_root",
    "timing_from_record",
]


#: Arrival candidate ``(base, slope, source)``: value ``base + slope · t``.
UpCandidate = Tuple[float, float, int]
#: Diameter candidate ``(base, slope, (source, sink))``.
DiamCandidate = Tuple[float, float, Tuple[int, int]]


class SubtreeRecord(NamedTuple):
    """The Fig. 2 state of one subtree as linear functions of its external load."""

    down: float                            # Eq. 1 load seen from the parent
    ups: Tuple[UpCandidate, ...]           # arrival candidates at v (parent side)
    req: float                             # d(v); NEVER when the subtree has no sink
    req_sink: Optional[int]
    diams: Tuple[DiamCandidate, ...]       # internal-pair candidates


class EvalState(object):
    """Mutable evaluation state: one tree + technology + editable knobs.

    Owns the per-edge wire resistance/capacitance arrays (width factors and
    the global variation scalars applied), the repeater assignment, and the
    terminal overrides.  The full pass (:func:`build_records` via
    ``compute_ard``) computes records from this state, and
    :class:`~repro.rctree.flat.FlatARDEngine` replays its knobs into one to
    cross-check its own sweeps against that pass.
    """

    __slots__ = (
        "tree",
        "tech",
        "assignment",
        "companion",
        "widths",
        "terminal_overrides",
        "res_scale",
        "cap_scale",
        "wire_cap",
        "wire_res",
    )

    def __init__(
        self,
        tree: RoutingTree,
        tech: Technology,
        context: Optional[EvalContext] = None,
    ):
        context = context if context is not None else EvalContext()
        self.tree = tree
        self.tech = tech
        self.companion = bool(context.include_companion_cap)
        self.terminal_overrides: Dict[int, Terminal] = {}
        self.res_scale = 1.0
        self.cap_scale = 1.0

        self.assignment: Dict[int, Repeater] = {}
        for idx, rep in dict(context.assignment or {}).items():
            self.set_repeater(idx, rep)

        self.widths: Dict[int, float] = {}
        self.wire_cap: List[float] = [0.0] * len(tree)
        self.wire_res: List[float] = [0.0] * len(tree)
        for idx, w in dict(context.wire_widths or {}).items():
            self._check_edge(idx)
            if w <= 0.0:
                raise ValueError(f"wire width factor must be positive, got {w}")
            self.widths[idx] = float(w)
        for i in range(len(tree)):
            self.refresh_edge(i)

    # -- mutation primitives (validated; no dirty tracking here) ---------------

    def set_repeater(self, idx: int, rep: Optional[Repeater]) -> None:
        if rep is None:
            self.assignment.pop(idx, None)
            return
        if not (0 <= idx < len(self.tree)):
            raise ValueError(f"assignment names unknown node {idx}")
        node = self.tree.node(idx)
        if node.kind is not NodeKind.INSERTION:
            raise ValueError(
                f"repeater assigned to node {idx} which is a "
                f"{node.kind.value}, not an insertion point"
            )
        if not isinstance(rep, Repeater):
            raise TypeError(f"assignment[{idx}] is not a Repeater: {rep!r}")
        self.assignment[idx] = rep

    def set_terminal_override(self, idx: int, terminal: Terminal) -> None:
        if not (0 <= idx < len(self.tree)):
            raise ValueError(f"unknown node {idx}")
        if self.tree.node(idx).kind is not NodeKind.TERMINAL:
            raise ValueError(f"node {idx} is not a terminal")
        if not isinstance(terminal, Terminal):
            raise TypeError(f"terminal override for node {idx} is {terminal!r}")
        self.terminal_overrides[idx] = terminal

    def set_scales(self, res_scale: float, cap_scale: float) -> None:
        if res_scale <= 0.0 or cap_scale <= 0.0:
            raise ValueError("wire variation scalars must be positive")
        self.res_scale = float(res_scale)
        self.cap_scale = float(cap_scale)
        for i in range(len(self.tree)):
            self.refresh_edge(i)

    def refresh_edge(self, i: int) -> None:
        # multiplying by a unit width/scale is IEEE-exact, so the arrays are
        # bitwise identical to ElmoreAnalyzer's when no knob is active
        length = self.tree.edge_length(i)
        w = self.widths.get(i, 1.0)
        self.wire_cap[i] = self.tech.wire_capacitance(length) * w * self.cap_scale
        self.wire_res[i] = self.tech.wire_resistance(length) / w * self.res_scale

    def _check_edge(self, idx: int) -> None:
        if not (0 <= idx < len(self.tree)) or self.tree.parent(idx) is None:
            raise ValueError(f"wire edge {idx} does not name an edge")

    # -- queries ----------------------------------------------------------------

    def terminal(self, idx: int) -> Terminal:
        override = self.terminal_overrides.get(idx)
        if override is not None:
            return override
        term = self.tree.node(idx).terminal
        if term is None:
            raise ValueError(f"node {idx} is not a terminal")
        return term


# -- the shared combine step ---------------------------------------------------


def record_for(
    state: EvalState, v: int, records: List[Optional[SubtreeRecord]]
) -> SubtreeRecord:
    """The record of node ``v`` from its children's records — the one DFS
    combine step of the reference pass (the flat kernel ports it)."""
    tree = state.tree
    if tree.node(v).kind is NodeKind.TERMINAL:
        return _leaf_record(state, v)
    return _internal_record(state, v, records)


def _leaf_record(state: EvalState, v: int) -> SubtreeRecord:
    term = state.terminal(v)
    ups: Tuple[UpCandidate, ...] = ()
    if term.is_source:
        # driver load = own cap + parent wire + external load t_v
        base = term.arrival_time + term.driver_delay(
            term.capacitance + state.wire_cap[v]
        )
        ups = ((base, term.resistance, v),)
    if term.is_sink:
        req, req_sink = term.downstream_delay, v
    else:
        req, req_sink = NEVER, None
    return SubtreeRecord(term.capacitance, ups, req, req_sink, ())


def _internal_record(
    state: EvalState, v: int, records: List[Optional[SubtreeRecord]]
) -> SubtreeRecord:
    tree = state.tree
    children = tree.children(v)
    wire_cap = state.wire_cap
    wire_res = state.wire_res
    rep = state.assignment.get(v)

    child_load = [wire_cap[u] + records[u].down for u in children]
    if rep is not None:
        down = rep.c_a
    else:
        down = sum(child_load)

    # per-child downward delay (scalar): wire into the child + its required
    downs: List[Tuple[float, int, int]] = []
    for k, u in enumerate(children):
        rec = records[u]
        if rec.req != NEVER:
            downs.append(
                (
                    wire_res[u] * (0.5 * wire_cap[u] + rec.down) + rec.req,
                    rec.req_sink,
                    u,
                )
            )

    if rep is not None:
        return _repeater_record(state, v, children[0], records[children[0]], downs, rep)

    # external load of child u:  t_u = side_u + t_v
    ups: List[UpCandidate] = []
    diams: List[DiamCandidate] = []
    lifted_per_child: List[Tuple[int, List[UpCandidate]]] = []
    for k, u in enumerate(children):
        rec = records[u]
        # the exact sibling sum (no subtraction tricks): the flat kernel's
        # port reproduces it bit for bit
        side = wire_cap[v] + sum(
            child_load[j] for j in range(len(children)) if j != k
        )
        lifted: List[UpCandidate] = []
        for base, slope, source in rec.ups:
            lifted.append(
                (
                    base
                    + slope * side
                    + wire_res[u] * (0.5 * wire_cap[u] + side),
                    slope + wire_res[u],
                    source,
                )
            )
        lifted_per_child.append((u, lifted))
        ups.extend(lifted)
        for base, slope, pair in rec.diams:
            diams.append((base + slope * side, slope, pair))

    # cross-child pairs: every lifted up candidate + the best down of a
    # *different* child (top-two downs give the distinct-child fallback)
    best_down, second_down = _top_two(downs)
    for u, lifted in lifted_per_child:
        for base, slope, source in lifted:
            chosen = best_down
            if chosen is not None and chosen[2] == u:
                chosen = second_down
            if chosen is None:
                continue
            diams.append((base + chosen[0], slope, (source, chosen[1])))

    req, req_sink = _best_scalar(downs)
    return SubtreeRecord(
        down, _prune(ups), req, req_sink, _prune(diams)
    )


def _repeater_record(
    state: EvalState,
    v: int,
    child: int,
    rec: SubtreeRecord,
    downs: List[Tuple[float, int, int]],
    rep: Repeater,
) -> SubtreeRecord:
    """Record of a repeater node: the repeater decouples, so candidates are
    evaluated at its B-side input cap and re-launched with its own slope."""
    wire_cap = state.wire_cap
    wire_res = state.wire_res

    ups: Tuple[UpCandidate, ...] = ()
    if rec.ups:
        # arrivals below the repeater become scalars at t_child = c_b ...
        best_arrival, best_source = NEVER, None
        for base, slope, source in rec.ups:
            arrival = (
                base
                + slope * rep.c_b
                + wire_res[child] * (0.5 * wire_cap[child] + rep.c_b)
            )
            if arrival > best_arrival:
                best_arrival, best_source = arrival, source
        # ... and relaunch upward (B -> A) against the parent wire + t_v
        up_load = wire_cap[v] + rep.c_a if state.companion else wire_cap[v]
        ups = ((best_arrival + rep.d_ba + rep.r_ba * up_load, rep.r_ba, best_source),)

    req, req_sink = _best_scalar(downs)
    if req != NEVER:
        cross_load = wire_cap[child] + rec.down
        if state.companion:
            cross_load = cross_load + rep.c_b
        req = req + rep.delay(a_to_b=True, load_pf=cross_load)

    # internal pairs are frozen: beyond c_b the external load is invisible
    diams = tuple(
        (base + slope * rep.c_b, 0.0, pair) for base, slope, pair in rec.diams
    )
    return SubtreeRecord(rep.c_a, ups, req, req_sink, _prune(diams))


def _top_two(downs):
    """First-strict top two downward entries (used for distinct-child pairs)."""
    best = second = None
    for entry in downs:
        if best is None or entry[0] > best[0]:
            best, second = entry, best
        elif second is None or entry[0] > second[0]:
            second = entry
    return best, second


def _best_scalar(entries) -> Tuple[float, Optional[int]]:
    value, arg = NEVER, None
    for val, terminal, _child in entries:
        if val > value:
            value, arg = val, terminal
    return value, arg


def _prune(candidates):
    """Upper-envelope (Pareto) filter on the domain ``t >= 0``.

    A candidate is redundant when another has base **and** slope at least as
    large — it can then never exceed the dominator at any non-negative
    external load.  Keep-first on exact ties, so the first-strict arg-max
    over the surviving list is deterministic.
    """
    if len(candidates) <= 1:
        return tuple(candidates)
    if len(candidates) == 2:
        # the general loop specialized to two entries (keep-first on ties)
        a, b = candidates
        if a[0] >= b[0] and a[1] >= b[1]:
            return (a,)
        if b[0] >= a[0] and b[1] >= a[1]:
            return (b,)
        return (a, b)
    kept: List = []
    for cand in candidates:
        dominated = False
        for other in kept:
            if other[0] >= cand[0] and other[1] >= cand[1]:
                dominated = True
                break
        if dominated:
            continue
        kept = [
            other
            for other in kept
            if not (cand[0] >= other[0] and cand[1] >= other[1])
        ]
        kept.append(cand)
    return tuple(kept)


def _eval_at(candidates, external_cap: float):
    """First-strict arg-max of ``base + slope · external_cap``."""
    value, arg = NEVER, None
    for base, slope, tag in candidates:
        cand = base + slope * external_cap
        if cand > value:
            value, arg = cand, tag
    return value, arg


def build_records(state: EvalState) -> List[Optional[SubtreeRecord]]:
    """Records for every non-root node, children before parents."""
    tree = state.tree
    records: List[Optional[SubtreeRecord]] = [None] * len(tree)
    for v in tree.dfs_postorder():
        if v != tree.root:
            records[v] = record_for(state, v, records)
    return records


def finish_root(
    state: EvalState, records: List[Optional[SubtreeRecord]]
) -> Tuple[float, Optional[int], Optional[int]]:
    """Fold the root terminal's own source/sink roles in — ``ARD = z(root)``."""
    tree = state.tree
    root = tree.root
    term = state.terminal(root)
    (child,) = tree.children(root)
    rec = records[child]
    root_cap = term.capacitance
    wire_cap = state.wire_cap[child]
    wire_res = state.wire_res[child]

    # the external load of the root's child is the root's own input cap
    best, pair = _eval_at(rec.diams, root_cap)
    src, snk = pair if pair is not None else (None, None)

    # root as sink: arrivals from inside the child subtree terminate here
    if term.is_sink and rec.ups:
        arrival, arrival_source = _eval_at(rec.ups, root_cap)
        cand = (
            arrival
            + wire_res * (0.5 * wire_cap + root_cap)
            + term.downstream_delay
        )
        if cand > best:
            best, src, snk = cand, arrival_source, root

    # root as source: drive down into the child subtree
    if term.is_source and rec.req != NEVER:
        load = term.capacitance + (wire_cap + rec.down)
        cand = (
            term.arrival_time
            + term.driver_delay(load)
            + wire_res * (0.5 * wire_cap + rec.down)
            + rec.req
        )
        if cand > best:
            best, src, snk = cand, root, rec.req_sink
    return best, src, snk


def timing_from_record(
    record: SubtreeRecord, external_cap: float
) -> SubtreeTiming:
    """The legacy scalar :class:`SubtreeTiming` of one record, evaluated at
    the node's actual Eq. 2 external load (used by the full pass only)."""
    arrival, arrival_source = _eval_at(record.ups, external_cap)
    diameter, diameter_pair = _eval_at(record.diams, external_cap)
    return SubtreeTiming(
        arrival, arrival_source, record.req, record.req_sink, diameter, diameter_pair
    )
