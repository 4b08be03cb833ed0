"""Elmore delay engine for multisource routing trees with repeaters.

Implements the capacitance recurrences of the paper's Sec. III — Eq. (1),
the bottom-up pass giving the load of each subtree as seen from its parent,
and Eq. (2), the top-down pass giving the load of everything *outside* each
subtree — plus source-to-sink path delays ``PD(u, v)`` under the models of
Sec. II.  Both load directions are needed because a signal on a multisource
net may traverse any edge in either direction.

Conventions shared with the optimizer (see DESIGN.md §4):

* a repeater assigned to an insertion node has its **A-side facing the
  root**; signal flow root→leaves uses the ``*_ab`` parameters;
* a repeater decouples: looking into a repeater node one sees only the
  input capacitance of the facing side;
* a terminal's driver load is the whole net including the terminal's own
  input capacitance;
* by default the companion buffer of a repeater does not load the driving
  buffer (the paper's Fig. 8 model); ``include_companion_cap=True`` adds
  the anti-parallel buffer's input capacitance to crossing delays for
  sensitivity studies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..check import contracts
from ..obs import core as obs
from ..tech.buffers import Repeater
from ..tech.parameters import Technology
from ..tech.terminals import NEVER
from .engine import EvalContext, check_engine_tree
from .topology import NodeKind, RoutingTree

__all__ = ["ElmoreAnalyzer"]

# Nodes visited by the Eq. 1/2 capacitance passes (naming contract:
# docs/OBSERVABILITY.md).  Grows by 2·n per analyzer construction, making
# "how many full capacitance passes did this optimization run" readable
# straight off a trace.
_OBS_CAP_PASS_NODES = obs.Counter("elmore.cap_pass.nodes")


class ElmoreAnalyzer:
    """Delay/capacitance queries for one tree + one repeater assignment.

    The analyzer is cheap to construct (two O(n) capacitance passes) and
    immutable with respect to the assignment: build a new one per candidate
    assignment.

    Parameters
    ----------
    tree:
        The routing tree (rooted at a terminal).
    tech:
        Wire constants.
    context:
        The evaluation knobs as one
        :class:`~repro.rctree.engine.EvalContext` — repeater ``assignment``
        (A-side facing the root), per-edge ``wire_widths`` factors (a
        ``w``-wide wire has resistance ``R/w`` and capacitance ``w*C``),
        and the ``include_companion_cap`` crossing-delay model.

    ``context`` is the only way to pass the knobs: the pre-context
    per-knob arguments were removed at v2.0 and now raise
    :class:`TypeError` (docs/API.md).
    """

    def __init__(
        self,
        tree: RoutingTree,
        tech: Technology,
        *,
        context: Optional[EvalContext] = None,
    ):
        context = context if context is not None else EvalContext()
        self._tree = tree
        self._tech = tech
        self._assignment: Dict[int, Repeater] = dict(context.assignment or {})
        self._companion = bool(context.include_companion_cap)
        wire_widths = context.wire_widths
        for idx, w in (wire_widths or {}).items():
            if w <= 0.0:
                raise ValueError(f"wire width factor must be positive, got {w}")
            if not (0 <= idx < len(tree)) or tree.parent(idx) is None:
                raise ValueError(f"wire_widths[{idx}] does not name an edge")
        self._wire_widths = dict(wire_widths or {})

        for idx, rep in self._assignment.items():
            if not (0 <= idx < len(tree)):
                raise ValueError(f"assignment names unknown node {idx}")
            node = tree.node(idx)
            if node.kind is not NodeKind.INSERTION:
                raise ValueError(
                    f"repeater assigned to node {idx} which is a "
                    f"{node.kind.value}, not an insertion point"
                )
            if not isinstance(rep, Repeater):
                raise TypeError(f"assignment[{idx}] is not a Repeater: {rep!r}")

        self._wire_cap: List[float] = [
            tech.wire_capacitance(tree.edge_length(i))
            * self._wire_widths.get(i, 1.0)
            for i in range(len(tree))
        ]
        self._wire_res: List[float] = [
            tech.wire_resistance(tree.edge_length(i))
            / self._wire_widths.get(i, 1.0)
            for i in range(len(tree))
        ]
        self._down: List[float] = [0.0] * len(tree)
        self._up: List[float] = [0.0] * len(tree)
        self._run_capacitance_passes()
        if contracts.contracts_enabled():
            contracts.verify_nonnegative_caps(self)

    # -- construction-time passes (Eqs. 1 and 2) ------------------------------

    def _own_cap(self, v: int) -> float:
        node = self._tree.node(v)
        return node.terminal.capacitance if node.terminal is not None else 0.0

    def _run_capacitance_passes(self) -> None:
        tree = self._tree
        if obs.enabled():
            _OBS_CAP_PASS_NODES.add(2 * len(tree))
        # Eq. (1): bottom-up subtree loads.
        for v in tree.dfs_postorder():
            rep = self._assignment.get(v)
            if rep is not None:
                self._down[v] = rep.c_a
            elif tree.node(v).kind is NodeKind.TERMINAL and tree.is_leaf(v):
                self._down[v] = self._own_cap(v)
            else:
                self._down[v] = sum(
                    self._wire_cap[u] + self._down[u] for u in tree.children(v)
                )
        # Eq. (2): top-down external loads at each node's parent.
        for v in tree.dfs_preorder():
            p = tree.parent(v)
            if p is None:
                continue
            rep = self._assignment.get(p)
            if rep is not None:
                self._up[v] = rep.c_b
            elif tree.node(p).kind is NodeKind.TERMINAL:
                self._up[v] = self._own_cap(p)  # p is the root terminal
            else:
                base = 0.0
                if tree.parent(p) is not None:
                    base = self._wire_cap[p] + self._up[p]
                siblings = sum(
                    self._wire_cap[u] + self._down[u]
                    for u in tree.children(p)
                    if u != v
                )
                self._up[v] = base + siblings

    # -- capacitance queries ----------------------------------------------------

    def downstream_cap(self, v: int) -> float:
        """Load of subtree ``T_v`` as seen from ``v``'s parent (Eq. 1).

        Excludes the wire of the parent edge itself.
        """
        return self._down[v]

    def upstream_cap(self, v: int) -> float:
        """Load of everything outside ``T_v`` as seen at ``v``'s parent (Eq. 2).

        Excludes the wire of the edge ``(v, parent)``; raises for the root.
        """
        if self._tree.parent(v) is None:
            raise ValueError("the root has no upstream")
        return self._up[v]

    def node_view(self, v: int, entered_from: int) -> float:
        """Capacitance seen looking *into* node ``v`` from a neighbor.

        This is the unified form of Eqs. (1)–(2): entering from the parent
        yields the subtree load, entering from a child yields the external
        load, and a repeater at ``v`` presents only its facing input
        capacitance.
        """
        tree = self._tree
        if entered_from not in tree.neighbors(v):
            raise ValueError(f"{entered_from} is not adjacent to {v}")
        if entered_from == tree.parent(v):
            return self._down[v]
        # entered from a child
        rep = self._assignment.get(v)
        if rep is not None:
            return rep.c_b
        if tree.node(v).kind is NodeKind.TERMINAL:
            return self._own_cap(v)  # root terminal seen from its child
        total = 0.0
        if tree.parent(v) is not None:
            total += self._wire_cap[v] + self._up[v]
        total += sum(
            self._wire_cap[u] + self._down[u]
            for u in tree.children(v)
            if u != entered_from
        )
        return total

    def cap_into(self, frm: int, to: int) -> float:
        """Load seen from node ``frm`` through the edge toward neighbor ``to``.

        Includes the full wire capacitance of the edge plus everything
        beyond it; this is exactly a driver's load when it sits at ``frm``
        and drives toward ``to``.
        """
        return self._edge_cap(frm, to) + self.node_view(to, frm)

    def total_capacitance(self) -> float:
        """Sum of all wire and terminal capacitances, ignoring decoupling.

        An upper bound on any load in the net; the DP uses it to bound the
        external-capacitance domain.
        """
        wires = sum(self._wire_cap)
        pins = sum(t.capacitance for t in self._tree.terminals())
        return wires + pins

    def driver_load(self, terminal_idx: int) -> float:
        """Everything the terminal's driver sees, own input cap included."""
        tree = self._tree
        node = tree.node(terminal_idx)
        if node.terminal is None:
            raise ValueError(f"node {terminal_idx} is not a terminal")
        neighbor = self._sole_neighbor(terminal_idx)
        return node.terminal.capacitance + self.cap_into(terminal_idx, neighbor)

    # -- delays -------------------------------------------------------------------

    def path_delay(self, src: int, dst: int) -> float:
        """``PD(src, dst)``: Elmore delay from the driver at terminal ``src``
        through wires and repeaters to terminal ``dst`` (paper Def. 2.1).

        Includes the source driver's delay; excludes the terminals' ``alpha``
        and ``beta`` (see :meth:`augmented_delay`).
        """
        tree = self._tree
        n = len(tree)
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError("path_delay endpoints must be terminals")
        src_t = tree.node(src).terminal
        dst_t = tree.node(dst).terminal
        if src_t is None or dst_t is None:
            raise ValueError("path_delay endpoints must be terminals")
        if src == dst:
            raise ValueError("source and sink must differ")
        if not src_t.is_source:
            raise ValueError(f"terminal {src_t.name} cannot drive")

        path = tree.path_between(src, dst)
        delay = src_t.driver_delay(src_t.capacitance + self.cap_into(src, path[1]))
        for k in range(1, len(path)):
            a, b = path[k - 1], path[k]
            delay += self.wire_delay(a, b)
            if k < len(path) - 1 and b in self._assignment:
                delay += self.repeater_delay_through(b, a, path[k + 1])
        return delay

    def wire_delay(self, frm: int, to: int) -> float:
        """Elmore delay (ps) across the wire from ``frm`` to adjacent ``to``.

        ``r_e * (c_e/2 + load beyond the wire)``; direction-aware because the
        view into ``to`` depends on which way the signal travels.
        """
        e = self._edge_index(frm, to)
        return self._wire_res[e] * (
            0.5 * self._wire_cap[e] + self.node_view(to, frm)
        )

    def repeater_delay_through(self, at: int, came_from: int, going_to: int) -> float:
        """Delay through the repeater at ``at``, entering from ``came_from``
        and driving toward ``going_to``.  Raises if no repeater is assigned.
        """
        rep = self._assignment.get(at)
        if rep is None:
            raise ValueError(f"no repeater assigned at node {at}")
        return self._repeater_crossing_delay(at, came_from, going_to, rep)

    def has_repeater(self, at: int) -> bool:
        """True when the assignment places a repeater at node ``at``."""
        return at in self._assignment

    def augmented_delay(self, src: int, dst: int) -> float:
        """``alpha(src) + PD(src, dst) + beta(dst)`` — one ARD candidate."""
        tree = self._tree
        src_t = tree.node(src).terminal
        dst_t = tree.node(dst).terminal
        if src_t is None or dst_t is None:
            raise ValueError("augmented_delay endpoints must be terminals")
        if not src_t.is_source or not dst_t.is_sink:
            return NEVER
        return src_t.arrival_time + self.path_delay(src, dst) + dst_t.downstream_delay

    def ard_bruteforce(self) -> float:
        """ARD(T) by enumerating all source/sink pairs — O(n^2) reference.

        The linear-time algorithm (`repro.core.ard`) is validated against
        this.  Returns ``-inf`` when the net has no source/sink pair.
        """
        best = NEVER
        terminals = self._tree.terminal_indices()
        for u in terminals:
            if not self._tree.node(u).terminal.is_source:
                continue
            for v in terminals:
                if v == u or not self._tree.node(v).terminal.is_sink:
                    continue
                best = max(best, self.augmented_delay(u, v))
        return best

    def critical_pair(self) -> Tuple[Optional[int], Optional[int], float]:
        """The (source, sink, augmented delay) achieving the ARD."""
        best: Tuple[Optional[int], Optional[int], float] = (None, None, NEVER)
        terminals = self._tree.terminal_indices()
        for u in terminals:
            if not self._tree.node(u).terminal.is_source:
                continue
            for v in terminals:
                if v == u or not self._tree.node(v).terminal.is_sink:
                    continue
                d = self.augmented_delay(u, v)
                if d > best[2]:
                    best = (u, v, d)
        return best

    # -- internals ------------------------------------------------------------------

    @property
    def tree(self) -> RoutingTree:
        return self._tree

    @property
    def technology(self) -> Technology:
        return self._tech

    @property
    def assignment(self) -> Dict[int, Repeater]:
        return dict(self._assignment)

    @property
    def wire_widths(self) -> Dict[int, float]:
        return dict(self._wire_widths)

    @property
    def include_companion_cap(self) -> bool:
        return self._companion

    @property
    def context(self) -> EvalContext:
        """The analyzer's evaluation knobs as one :class:`EvalContext`.

        Empty knobs normalize to ``None`` so a round-tripped context
        compares equal to the one passed in.
        """
        return EvalContext(
            assignment=dict(self._assignment) or None,
            wire_widths=dict(self._wire_widths) or None,
            include_companion_cap=self._companion,
        )

    def evaluate(self, tree: Optional[RoutingTree] = None):
        """The full Fig. 2 ARD pass (:class:`TimingEngine` conformance).

        Returns an :class:`~repro.rctree.engine.ARDResult` with the
        per-subtree ``timing`` table populated.
        """
        check_engine_tree(self._tree, tree)
        from ..core.ard import compute_ard

        return compute_ard(self)

    def _sole_neighbor(self, leaf: int) -> int:
        nbrs = self._tree.neighbors(leaf)
        if len(nbrs) != 1:
            raise ValueError(f"node {leaf} is not a leaf (neighbors {nbrs})")
        return nbrs[0]

    def _edge_index(self, a: int, b: int) -> int:
        """Index carrying the edge between adjacent nodes ``a`` and ``b``."""
        if self._tree.parent(b) == a:
            return b
        if self._tree.parent(a) == b:
            return a
        raise ValueError(f"nodes {a} and {b} are not adjacent")

    def _edge_cap(self, a: int, b: int) -> float:
        return self._wire_cap[self._edge_index(a, b)]

    def _repeater_crossing_delay(
        self, at: int, came_from: int, going_to: int, rep: Repeater
    ) -> float:
        """Delay through the repeater at node ``at`` continuing to ``going_to``."""
        downward = came_from == self._tree.parent(at)  # A -> B flow
        load = self.cap_into(at, going_to)
        if self._companion:
            load += rep.c_b if downward else rep.c_a
        return rep.delay(a_to_b=downward, load_pf=load)
