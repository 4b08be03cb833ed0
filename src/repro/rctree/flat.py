"""Array-flattened ARD kernel: ``FlatNet``, ``FlatARDEngine``, ``evaluate_batch``.

The reference engines walk :class:`~repro.rctree.topology.RoutingTree`
objects node-by-node — every Fig. 2 combine step pays attribute lookups,
``Node`` dataclass indirection and per-node method dispatch.  This module
*compiles* a tree once into contiguous topological-order arrays (parent
index, children table, per-edge wire R/C, per-terminal ``alpha``/``beta``/
``r``/``c`` columns plus source/sink tags) and then runs the paper's three
passes as tight index loops over those arrays:

* Eq. 1 (bottom-up subtree loads) and the Fig. 2 ``A_v``/``D_v``/``Z_v``
  recursion fuse into one reverse-preorder loop over the flat columns;
* Eq. 2 (top-down external loads) is one forward-preorder loop;
* the per-node timing table and ``path_delay`` reuse the same arrays.

**Bit-identity contract.**  The kernel is a *port*, not a re-derivation: it
replays the exact floating-point expression trees of
:mod:`repro.rctree.incremental` (whose record algebra is shared with the
full pass in :func:`repro.core.ard.compute_ard`) and of
:class:`~repro.rctree.elmore.ElmoreAnalyzer`'s Eq. 2 pass, reusing the
reference helpers ``_prune`` / ``_top_two`` / ``_best_scalar`` /
``_eval_at`` directly.  Every result — scalar ARD, critical pair, and the
full per-node ``A_v``/``D_v``/``Z_v`` table — is therefore ``==`` to the
reference engines, not merely close; ``tests/test_flat_differential.py``
locks this down over a 500-net corpus and the ``REPRO_CHECK=1`` contract
(:func:`repro.check.contracts.verify_flat_consistency`) re-asserts it on
every evaluation in checked runs.

**One editable engine.**  :class:`FlatARDEngine` keeps the kernel's
columns between evaluations.  Each edit patches the compiled columns and
marks its dirty nodes; :meth:`FlatARDEngine.evaluate` re-runs the same
kernel loop over the dirty root paths only, deepest preorder position
first, and stops at the first ancestor whose entries come out unchanged
(docs/ALGORITHMS.md §9-10).  A full pass is that loop over the whole
reverse preorder, so there is one combine step, not two.  The Eq. 2
sibling skip-sums are deliberately **not** rewritten as subtractions: a
subtract-the-child trick differs in floats from the reference's exact
skip-sum for fan-out > 2, which would break the bit-identity contract.

``evaluate_batch`` compiles and evaluates many nets in one call without
the per-net overhead of the reference path (engine construction, tree
validation, per-node timing table).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..check import contracts
from ..obs import core as obs
from ..tech.buffers import Repeater
from ..tech.parameters import Technology
from ..tech.terminals import NEVER, Terminal
from .engine import ARDResult, EvalContext, SubtreeTiming, check_engine_tree
from .incremental import (
    EvalState,
    _best_scalar,
    _eval_at,
    _prune,
    _top_two,
    build_records,
    finish_root,
)
from .topology import NodeKind, RoutingTree

__all__ = [
    "FlatNet",
    "FlatARDEngine",
    "compile_net",
    "evaluate_batch",
]

# Observability metrics (naming contract: docs/OBSERVABILITY.md).  The
# kernel counter (nodes swept by full passes) divided by the ``flat.batch``
# span duration is the nodes-per-second throughput of the flat pass; the
# refresh metrics count dirty-path sweeps and show that an edit re-sweeps
# only its dirty root paths.  All free while REPRO_OBS is off.
_OBS_KERNEL_NODES = obs.Counter("flat.kernel.nodes")
_OBS_BATCH_SIZE = obs.Histogram("flat.batch.size")
_OBS_DIRTY_SEEDS = obs.Counter("flat.refresh.dirty_seeds")
_OBS_UNCHANGED = obs.Counter("flat.refresh.records_unchanged")
_OBS_PATH_LENGTH = obs.Histogram("flat.refresh.path_length")

#: Per-node repeater parameters ``(c_a, c_b, d_ab, r_ab, d_ba, r_ba)``.
_RepParams = Tuple[float, float, float, float, float, float]


class FlatNet(object):
    """One routing tree lowered to contiguous topological-order columns.

    A compiled net is a plain struct-of-arrays: every column is indexed by
    node id, ``order`` is the preorder node sequence (its reverse is the
    postorder the Fig. 2 recursion needs), and ``kids[v]`` is the ascending
    children tuple.  :class:`FlatARDEngine` compiles a private instance
    so its mutation ops can patch columns in place.
    """

    __slots__ = (
        "tree",
        "tech",
        "companion",
        "n",
        "root",
        "order",
        "parent",
        "kids",
        "wire_cap",
        "wire_res",
        "is_term",
        "is_src",
        "is_snk",
        "alpha",
        "beta",
        "tcap",
        "tres",
        "tintr",
        "tname",
        "leaf_base",
        "rep",
        "widths",
        "res_scale",
        "cap_scale",
    )

    def __init__(self, tree: RoutingTree, tech: Technology, companion: bool):
        n = len(tree)
        self.tree = tree
        self.tech = tech
        self.companion = companion
        self.n = n
        self.root = tree.root
        self.order: List[int] = list(tree.dfs_preorder())
        self.parent: List[Optional[int]] = [tree.parent(i) for i in range(n)]
        self.kids: List[Tuple[int, ...]] = [tree.children(i) for i in range(n)]
        self.wire_cap: List[float] = [0.0] * n
        self.wire_res: List[float] = [0.0] * n
        self.is_term: List[bool] = [False] * n
        self.is_src: List[bool] = [False] * n
        self.is_snk: List[bool] = [False] * n
        self.alpha: List[float] = [0.0] * n
        self.beta: List[float] = [0.0] * n
        self.tcap: List[float] = [0.0] * n
        self.tres: List[float] = [0.0] * n
        self.tintr: List[float] = [0.0] * n
        self.tname: List[Optional[str]] = [None] * n
        self.leaf_base: List[float] = [0.0] * n
        self.rep: List[Optional[_RepParams]] = [None] * n
        self.widths: Dict[int, float] = {}
        self.res_scale = 1.0
        self.cap_scale = 1.0

    # -- column maintenance (shared by compile and the engine's mutators) ------

    def refresh_edge(self, i: int) -> None:
        """Recompute one edge's R/C columns — the EvalState formula verbatim.

        Multiplying by a unit width or scale factor is IEEE-exact, so the
        columns stay bitwise identical to the reference arrays whichever
        knobs are active.
        """
        length = self.tree.edge_length(i)
        w = self.widths.get(i, 1.0)
        self.wire_cap[i] = self.tech.wire_capacitance(length) * w * self.cap_scale
        self.wire_res[i] = self.tech.wire_resistance(length) / w * self.res_scale

    def set_terminal_payload(self, v: int, term: Terminal) -> None:
        """Load one terminal's columns from its (possibly overridden) payload."""
        self.is_term[v] = True
        self.is_src[v] = term.is_source
        self.is_snk[v] = term.is_sink
        self.alpha[v] = term.arrival_time
        self.beta[v] = term.downstream_delay
        self.tcap[v] = term.capacitance
        self.tres[v] = term.resistance
        self.tintr[v] = term.intrinsic_delay
        self.tname[v] = term.name
        self.refresh_leaf_base(v)

    def refresh_leaf_base(self, v: int) -> None:
        # _leaf_record's driver-delay base:
        #   alpha + driver_delay(cap + wire_cap) = alpha + (intr + r*(c + wc))
        self.leaf_base[v] = self.alpha[v] + (
            self.tintr[v] + self.tres[v] * (self.tcap[v] + self.wire_cap[v])
        )

    def set_repeater_params(self, v: int, rep: Optional[Repeater]) -> None:
        if rep is None:
            self.rep[v] = None
        else:
            self.rep[v] = (rep.c_a, rep.c_b, rep.d_ab, rep.r_ab, rep.d_ba, rep.r_ba)


def _validated_knobs(
    tree: RoutingTree, context: EvalContext
) -> Tuple[Dict[int, Repeater], Dict[int, float]]:
    """Validate an :class:`EvalContext` against a tree — EvalState's checks,
    raising the same typed errors with the same messages."""
    assignment: Dict[int, Repeater] = {}
    for idx, rep in dict(context.assignment or {}).items():
        if rep is None:
            continue
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
        assignment[idx] = rep
    widths: Dict[int, float] = {}
    for idx, w in dict(context.wire_widths or {}).items():
        if not (0 <= idx < len(tree)) or tree.parent(idx) is None:
            raise ValueError(f"wire edge {idx} does not name an edge")
        if w <= 0.0:
            raise ValueError(f"wire width factor must be positive, got {w}")
        widths[idx] = float(w)
    return assignment, widths


def compile_net(
    tree: RoutingTree,
    tech: Technology,
    context: Optional[EvalContext] = None,
) -> FlatNet:
    """Lower one tree + context into a :class:`FlatNet`."""
    context = context if context is not None else EvalContext()
    assignment, widths = _validated_knobs(tree, context)
    net = FlatNet(tree, tech, bool(context.include_companion_cap))
    net.widths = widths
    for idx, rep in assignment.items():
        net.set_repeater_params(idx, rep)

    n = net.n
    for v, node in enumerate(tree.nodes):
        term = node.terminal
        if term is not None:
            net.is_term[v] = True
            net.is_src[v] = term.is_source
            net.is_snk[v] = term.is_sink
            net.alpha[v] = term.arrival_time
            net.beta[v] = term.downstream_delay
            net.tcap[v] = term.capacitance
            net.tres[v] = term.resistance
            net.tintr[v] = term.intrinsic_delay
            net.tname[v] = term.name

    # refresh_edge inlined with the unit-knob multiplications dropped:
    # x * 1.0 and x / 1.0 are IEEE-exact no-ops, so skipping them keeps
    # the columns bit-identical while halving compile cost
    edge_length = tree.edge_length
    uc = tech.unit_capacitance
    ur = tech.unit_resistance
    wc = net.wire_cap
    wr = net.wire_res
    if widths:
        for i in range(n):
            length = edge_length(i)
            w = widths.get(i, 1.0)
            wc[i] = uc * length * w
            wr[i] = ur * length / w
    else:
        for i in range(n):
            length = edge_length(i)
            wc[i] = uc * length
            wr[i] = ur * length
    alpha = net.alpha
    tintr = net.tintr
    tres = net.tres
    tcap = net.tcap
    leaf_base = net.leaf_base
    for v in range(n):
        if net.is_term[v]:
            leaf_base[v] = alpha[v] + (tintr[v] + tres[v] * (tcap[v] + wc[v]))
    return net


# -- the fused Eq. 1 + Fig. 2 kernel -------------------------------------------


#: The kernel's per-node record columns ``(down, ups, req, req_sink, diams)``.
_Columns = Tuple[List[float], List[tuple], List[float], List[Optional[int]], List[tuple]]


def _dirty_paths(net: FlatNet, cols: _Columns, seeds, pos: List[int]):
    """Feed :func:`_kernel` the dirty root paths, deepest node first.

    Yields the dirty nodes by descending preorder position.  When the
    kernel asks for the next node, it has rewritten the last one's entries:
    the walk queues that node's parent only if the entries changed, so it
    stops early at the first unaffected ancestor (docs/ALGORITHMS.md §10).
    A parent sits at a smaller preorder position than its children, so
    every node is visited at most once, after all of its dirty descendants.
    """
    order = net.order
    root = net.root
    parent = net.parent
    down, ups, req, req_sink, diams = cols
    heap = [-pos[v] for v in seeds if v != root]
    heapq.heapify(heap)
    queued = set(seeds)
    n_seeds = len(heap)
    rebuilt = unchanged = 0  # plain locals: nothing obs-side in the loop
    while heap:
        v = order[-heapq.heappop(heap)]
        old = (down[v], ups[v], req[v], req_sink[v], diams[v])
        yield v
        if (down[v], ups[v], req[v], req_sink[v], diams[v]) == old:
            unchanged += 1
            continue
        rebuilt += 1
        p = parent[v]
        if p != root and p not in queued:
            queued.add(p)
            heapq.heappush(heap, -pos[p])
    if obs.enabled():
        # a dirty sweep records its size once, as its path length (records
        # rebuilt = path length - unchanged): counting the same nodes again
        # as kernel nodes or rebuilt records would only multiply what the
        # disabled-overhead bound prices per counter unit
        _OBS_DIRTY_SEEDS.add(n_seeds)
        _OBS_UNCHANGED.add(unchanged)
        _OBS_PATH_LENGTH.observe(rebuilt + unchanged)


def _kernel(net: FlatNet, cols: Optional[_Columns] = None, nodes=None) -> _Columns:
    """The Fig. 2 record sweep over flat columns: full, or dirty root paths.

    With no arguments this is one reverse-preorder sweep producing every
    non-root subtree record into fresh columns.  Given the columns of an
    earlier sweep and a :func:`_dirty_paths` walk over them, the same loop
    body re-runs over the dirty root paths only.

    The body is :func:`repro.rctree.incremental.record_for` unrolled over
    flat columns: the candidate tuples, prune/argmax helpers and expression
    order are the reference's own, so the resulting ``(down, ups, req,
    req_sink, diams)`` arrays match ``build_records`` entry for entry.
    Every branch writes all five entries of its node, because a dirty sweep
    overwrites entries an earlier sweep left behind.
    """
    n = net.n
    kids = net.kids
    wire_cap = net.wire_cap
    wire_res = net.wire_res
    is_term = net.is_term
    is_src = net.is_src
    is_snk = net.is_snk
    beta = net.beta
    tcap = net.tcap
    tres = net.tres
    leaf_base = net.leaf_base
    rep = net.rep
    companion = net.companion
    never = NEVER

    if cols is None:
        cols = ([0.0] * n, [()] * n, [never] * n, [None] * n, [()] * n)
        nodes = net.order[:0:-1]  # reverse preorder; order[0] is the root
        if obs.enabled():
            _OBS_KERNEL_NODES.add(n - 1)
    down, ups, req, req_sink, diams = cols

    for v in nodes:
        if is_term[v]:
            down[v] = tcap[v]
            ups[v] = ((leaf_base[v], tres[v], v),) if is_src[v] else ()
            if is_snk[v]:
                req[v] = beta[v]
                req_sink[v] = v
            else:
                req[v] = never
                req_sink[v] = None
            diams[v] = ()
            continue

        children = kids[v]
        if rep[v] is None and len(children) == 1:
            # bare degree-1 node (the bulk of every insertion-point chain):
            # the general combine below collapses to lifting one child's
            # fronts; every expression is the general path's own literal
            # (sum() over one load is 0 + load; cross pairs cannot form —
            # the best downward entry always comes from the only child)
            u = children[0]
            ru = req[u]
            if ru != never:
                req[v] = wire_res[u] * (0.5 * wire_cap[u] + down[u]) + ru
                req_sink[v] = req_sink[u]
            else:
                req[v] = never
                req_sink[v] = None
            down[v] = 0 + (wire_cap[u] + down[u])
            side = wire_cap[v] + 0
            wru = wire_res[u]
            half = 0.5 * wire_cap[u]
            front = ups[u]
            if front:
                lifted = [
                    (base + slope * side + wru * (half + side), slope + wru, source)
                    for base, slope, source in front
                ]
                ups[v] = _prune(lifted) if len(lifted) > 1 else tuple(lifted)
            else:
                ups[v] = ()
            front = diams[u]
            if front:
                shifted = [
                    (base + slope * side, slope, pair)
                    for base, slope, pair in front
                ]
                diams[v] = (
                    _prune(shifted) if len(shifted) > 1 else tuple(shifted)
                )
            else:
                diams[v] = ()
            continue

        child_load = [wire_cap[u] + down[u] for u in children]
        downs = []
        for u in children:
            ru = req[u]
            if ru != never:
                downs.append(
                    (wire_res[u] * (0.5 * wire_cap[u] + down[u]) + ru, req_sink[u], u)
                )

        # small-front fast paths: _top_two/_best_scalar over zero or one
        # entries reduce to these literals (first-strict argmax from NEVER)
        n_downs = len(downs)
        if n_downs == 0:
            best_down = second_down = None
            rq, rs = never, None
        elif n_downs == 1:
            best_down, second_down = downs[0], None
            rq, rs = downs[0][0], downs[0][1]
        else:
            best_down, second_down = _top_two(downs)
            rq, rs = _best_scalar(downs)

        rv = rep[v]
        if rv is not None:
            c_a, c_b, d_ab, r_ab, d_ba, r_ba = rv
            child = children[0]
            if ups[child]:
                best_arrival, best_source = never, None
                wrc = wire_res[child]
                half = 0.5 * wire_cap[child]
                for base, slope, source in ups[child]:
                    arrival = base + slope * c_b + wrc * (half + c_b)
                    if arrival > best_arrival:
                        best_arrival, best_source = arrival, source
                up_load = wire_cap[v] + c_a if companion else wire_cap[v]
                ups[v] = ((best_arrival + d_ba + r_ba * up_load, r_ba, best_source),)
            else:
                ups[v] = ()
            if rq != never:
                cross_load = wire_cap[child] + down[child]
                if companion:
                    cross_load = cross_load + c_b
                rq = rq + (d_ab + r_ab * cross_load)
            req[v] = rq
            req_sink[v] = rs
            frozen = tuple(
                (base + slope * c_b, 0.0, pair) for base, slope, pair in diams[child]
            )
            diams[v] = _prune(frozen) if len(frozen) > 1 else frozen
            down[v] = c_a
            continue

        down[v] = sum(child_load)
        ups_v: List[tuple] = []
        diams_v: List[tuple] = []
        lifted_per_child: List[Tuple[int, List[tuple]]] = []
        n_kids = len(children)
        wcv = wire_cap[v]
        for k in range(n_kids):
            u = children[k]
            # the exact sibling skip-sum of _internal_record (no subtraction
            # trick), which is what keeps fan-out > 2 nets bit-identical;
            # the one- and two-child forms below are that sum's literal
            # expansion (sum() starts from int 0, an exact addend)
            if n_kids == 1:
                side = wcv + 0
            elif n_kids == 2:
                side = wcv + (0 + child_load[1 - k])
            else:
                side = wcv + sum(child_load[j] for j in range(n_kids) if j != k)
            wru = wire_res[u]
            half = 0.5 * wire_cap[u]
            lifted: List[tuple] = []
            for base, slope, source in ups[u]:
                lifted.append(
                    (base + slope * side + wru * (half + side), slope + wru, source)
                )
            lifted_per_child.append((u, lifted))
            ups_v.extend(lifted)
            for base, slope, pair in diams[u]:
                diams_v.append((base + slope * side, slope, pair))

        if best_down is not None:
            for u, lifted in lifted_per_child:
                for base, slope, source in lifted:
                    chosen = best_down
                    if chosen[2] == u:
                        chosen = second_down
                    if chosen is None:
                        continue
                    diams_v.append((base + chosen[0], slope, (source, chosen[1])))

        req[v] = rq
        req_sink[v] = rs
        ups[v] = _prune(ups_v) if len(ups_v) > 1 else tuple(ups_v)
        diams[v] = _prune(diams_v) if len(diams_v) > 1 else tuple(diams_v)

    return cols


def _finish(net: FlatNet, down, ups, req, req_sink, diams):
    """:func:`repro.rctree.incremental.finish_root` over flat columns."""
    root = net.root
    if not net.is_term[root]:
        raise ValueError(f"node {root} is not a terminal")
    (child,) = net.kids[root]
    root_cap = net.tcap[root]
    wire_cap = net.wire_cap[child]
    wire_res = net.wire_res[child]

    best, pair = _eval_at(diams[child], root_cap)
    src, snk = pair if pair is not None else (None, None)

    if net.is_snk[root] and ups[child]:
        arrival, arrival_source = _eval_at(ups[child], root_cap)
        cand = arrival + wire_res * (0.5 * wire_cap + root_cap) + net.beta[root]
        if cand > best:
            best, src, snk = cand, arrival_source, root

    if net.is_src[root] and req[child] != NEVER:
        load = net.tcap[root] + (wire_cap + down[child])
        cand = (
            net.alpha[root]
            + (net.tintr[root] + net.tres[root] * load)
            + wire_res * (0.5 * wire_cap + down[child])
            + req[child]
        )
        if cand > best:
            best, src, snk = cand, root, req_sink[child]
    return best, src, snk


def _up_pass(net: FlatNet, down: List[float]) -> List[float]:
    """Eq. 2 over flat columns — ElmoreAnalyzer's top-down pass verbatim.

    The record ``down`` array equals the analyzer's Eq. 1 array for every
    non-root node (same sums in the same order), so feeding it here yields
    the analyzer's exact external loads.
    """
    n = net.n
    up = [0.0] * n
    parent = net.parent
    rep = net.rep
    is_term = net.is_term
    tcap = net.tcap
    wire_cap = net.wire_cap
    kids = net.kids
    for v in net.order:
        p = parent[v]
        if p is None:
            continue
        rp = rep[p]
        if rp is not None:
            up[v] = rp[1]  # c_b
        elif is_term[p]:
            up[v] = tcap[p]  # p is the root terminal
        else:
            base = 0.0
            if parent[p] is not None:
                base = wire_cap[p] + up[p]
            siblings = sum(
                wire_cap[u] + down[u] for u in kids[p] if u != v
            )
            up[v] = base + siblings
    return up


def _timing_table(net, up, ups, req, req_sink, diams, best, src, snk):
    """The per-node ``A_v``/``D_v``/``Z_v`` table of ``compute_ard``."""
    timing: Dict[int, SubtreeTiming] = {}
    order = net.order
    root = net.root
    for i in range(net.n - 1, -1, -1):
        v = order[i]
        if v == root:
            continue
        arrival, arrival_source = _eval_at(ups[v], up[v])
        diameter, diameter_pair = _eval_at(diams[v], up[v])
        timing[v] = SubtreeTiming(
            arrival, arrival_source, req[v], req_sink[v], diameter, diameter_pair
        )
    timing[root] = SubtreeTiming(NEVER, None, NEVER, None, best, (src, snk))
    return timing


# -- the engine ----------------------------------------------------------------


class FlatARDEngine:
    """The editable :class:`~repro.rctree.engine.TimingEngine` over compiled columns.

    Construction compiles the tree once; the first :meth:`evaluate` runs
    one full kernel sweep and keeps its record columns.  The mutation ops
    (``set_assignment`` / ``set_terminal`` / ``set_wire_width`` /
    ``set_wire_scale`` / ``reroot``) patch the affected compiled columns
    in place and mark the minimal dirty set; the next evaluate re-runs the
    kernel over the dirty root paths only, deepest first, stopping early
    at unchanged records:

    * ``set_assignment(v)`` and ``set_terminal(v)`` dirty ``v``;
    * ``set_wire_width(e)`` dirties ``e`` and its parent (the parent's
      combine reads the edge columns directly);
    * ``set_wire_scale`` and ``reroot`` dirty everything — the next
      evaluate is one full sweep, with no engine rebuild.

    ``include_timing=True`` additionally materializes the per-node
    ``A_v``/``D_v``/``Z_v`` table on every evaluate (the reference
    ``ard()`` behavior); by default it is returned empty.

    With ``REPRO_CHECK=1`` every evaluation is cross-checked bit-for-bit
    against a fresh reference record pass
    (:func:`repro.check.contracts.verify_flat_consistency`).
    """

    def __init__(
        self,
        tree: RoutingTree,
        tech: Technology,
        *,
        context: Optional[EvalContext] = None,
        include_timing: bool = False,
    ):
        context = context if context is not None else EvalContext()
        self._assignment, _ = _validated_knobs(tree, context)
        self._overrides: Dict[int, Terminal] = {}
        self._include_timing = bool(include_timing)
        self._set_net(compile_net(tree, tech, context))

    # -- engine protocol --------------------------------------------------------

    @property
    def tree(self) -> RoutingTree:
        return self._net.tree

    @property
    def technology(self) -> Technology:
        return self._net.tech

    @property
    def assignment(self) -> Dict[int, Repeater]:
        return dict(self._assignment)

    @property
    def context(self) -> EvalContext:
        """The engine's current knobs (terminal overrides and wire scales
        live outside :class:`EvalContext` and are not represented)."""
        return EvalContext(
            assignment=dict(self._assignment) or None,
            wire_widths=dict(self._net.widths) or None,
            include_companion_cap=self._net.companion,
        )

    def evaluate(self, tree: Optional[RoutingTree] = None) -> ARDResult:
        """The current ARD, re-sweeping only dirty root paths (cached until
        edited)."""
        check_engine_tree(self._net.tree, tree)
        if self._result is not None:
            return self._result
        best, src, snk = self._ensure_kernel()
        timing: Dict[int, SubtreeTiming] = {}
        if self._include_timing:
            _, ups, req, req_sink, diams = self._cols
            timing = _timing_table(
                self._net, self._ensure_up(), ups, req, req_sink, diams,
                best, src, snk,
            )
        self._result = ARDResult(best, src, snk, timing)
        if contracts.contracts_enabled():
            contracts.verify_flat_consistency(self._result, self._eval_state())
        return self._result

    def path_delay(self, src: int, dst: int) -> float:
        """``PD(src, dst)`` under the engine's current state (Def. 2.1)."""
        net = self._net
        if not (0 <= src < net.n and 0 <= dst < net.n) or not (
            net.is_term[src] and net.is_term[dst]
        ):
            raise ValueError("path_delay endpoints must be terminals")
        if src == dst:
            raise ValueError("source and sink must differ")
        if not net.is_src[src]:
            raise ValueError(f"terminal {net.tname[src]} cannot drive")

        self._ensure_kernel()
        self._ensure_up()
        path = net.tree.path_between(src, dst)
        # driver_delay(cap + cap_into) = intr + r * (c + cap_into)
        total = net.tintr[src] + net.tres[src] * (
            net.tcap[src] + self._cap_into(src, path[1])
        )
        for k in range(1, len(path)):
            a, b = path[k - 1], path[k]
            total += self._wire_delay(a, b)
            if k < len(path) - 1 and net.rep[b] is not None:
                total += self._crossing_delay(b, a, path[k + 1])
        return total

    # -- mutation ops -----------------------------------------------------------

    def set_assignment(self, node: int, repeater: Optional[Repeater]) -> None:
        """Place (or with ``None`` remove) a repeater at an insertion node."""
        if not (0 <= node < self._net.n):
            raise ValueError(f"assignment names unknown node {node}")
        if repeater is not None:
            kind = self._net.tree.node(node).kind
            if kind is not NodeKind.INSERTION:
                raise ValueError(
                    f"repeater assigned to node {node} which is a "
                    f"{kind.value}, not an insertion point"
                )
            if not isinstance(repeater, Repeater):
                raise TypeError(f"assignment[{node}] is not a Repeater: {repeater!r}")
            self._assignment[node] = repeater
        else:
            self._assignment.pop(node, None)
        self._net.set_repeater_params(node, repeater)
        self._mark(node)

    def set_terminal(self, node: int, terminal: Terminal) -> None:
        """Override the terminal payload of a terminal node."""
        if not (0 <= node < self._net.n):
            raise ValueError(f"unknown node {node}")
        if not self._net.is_term[node]:
            raise ValueError(f"node {node} is not a terminal")
        if not isinstance(terminal, Terminal):
            raise TypeError(f"terminal override for node {node} is {terminal!r}")
        self._overrides[node] = terminal
        self._net.set_terminal_payload(node, terminal)
        self._mark(node)  # the root holds no record: its finish re-reads it

    def set_wire_width(self, edge: int, width) -> None:
        """Set the width factor of one edge (named by its child node).

        ``width`` is a positive factor, an object with a ``width`` attribute
        (e.g. :class:`~repro.tech.buffers.WireClass`), or ``None`` to
        restore unit width.
        """
        factor = getattr(width, "width", width)
        net = self._net
        if not (0 <= edge < net.n) or net.parent[edge] is None:
            raise ValueError(f"wire edge {edge} does not name an edge")
        if factor is None:
            net.widths.pop(edge, None)
        else:
            if factor <= 0.0:
                raise ValueError(f"wire width factor must be positive, got {factor}")
            net.widths[edge] = float(factor)
        net.refresh_edge(edge)
        if net.is_term[edge]:
            net.refresh_leaf_base(edge)
        # the edge's own record carries its wire in every driver-load term,
        # and the parent's combine reads the edge columns directly
        self._mark(edge)
        self._mark(net.parent[edge])

    def set_wire_scale(
        self, *, resistance_factor: float = 1.0, capacitance_factor: float = 1.0
    ) -> None:
        """Set (absolutely, not cumulatively) global wire variation scalars.

        Every wire column changes, so the next :meth:`evaluate` is one full
        sweep; the win over rebuilding is skipping compilation.
        """
        if resistance_factor <= 0.0 or capacitance_factor <= 0.0:
            raise ValueError("wire variation scalars must be positive")
        net = self._net
        net.res_scale = float(resistance_factor)
        net.cap_scale = float(capacitance_factor)
        for i in range(net.n):
            net.refresh_edge(i)
        for v in range(net.n):
            if net.is_term[v]:
                net.refresh_leaf_base(v)
        self._cols = None
        self._invalidate()

    def reroot(self, node: int) -> None:
        """Re-orient the tree at ``node`` (terminal or branch point).

        Changes every parent relation, so the columns are recompiled from
        the re-oriented tree and the next evaluate is one full sweep; edge
        width overrides are remapped to the re-oriented edge carriers and
        terminal overrides / wire scales are replayed.
        """
        net = self._net
        old = net.tree
        new_tree = old.rerooted(node)
        remapped: Dict[int, float] = {}
        for idx, w in net.widths.items():
            parent = old.parent(idx)
            if new_tree.parent(idx) == parent:
                remapped[idx] = w
            else:  # the edge flipped: its carrier is now the old parent
                remapped[parent] = w
        res_scale, cap_scale = net.res_scale, net.cap_scale
        self._set_net(
            compile_net(
                new_tree,
                net.tech,
                EvalContext(
                    assignment=dict(self._assignment) or None,
                    wire_widths=remapped or None,
                    include_companion_cap=net.companion,
                ),
            )
        )
        net = self._net
        if res_scale != 1.0 or cap_scale != 1.0:  # repro: noqa[R001] 1.0 is the exact "never scaled" default
            net.res_scale = res_scale
            net.cap_scale = cap_scale
            for i in range(net.n):
                net.refresh_edge(i)
        for idx, term in self._overrides.items():
            net.set_terminal_payload(idx, term)
        if res_scale != 1.0 or cap_scale != 1.0:  # repro: noqa[R001] see above
            for v in range(net.n):
                if net.is_term[v]:
                    net.refresh_leaf_base(v)

    # -- verification hooks -----------------------------------------------------

    def fresh_result(self) -> ARDResult:
        """A from-scratch reference record pass over the engine's state.

        Replays the current knobs into an
        :class:`~repro.rctree.incremental.EvalState` and runs the reference
        ``build_records`` / ``finish_root`` — any disagreement with
        :meth:`evaluate` pinpoints a kernel porting or dirty-tracking bug,
        not float drift.
        """
        state = self._eval_state()
        records = build_records(state)
        value, src, snk = finish_root(state, records)
        return ARDResult(value, src, snk, {})

    def _eval_state(self) -> EvalState:
        state = EvalState(
            self._net.tree,
            self._net.tech,
            EvalContext(
                assignment=dict(self._assignment) or None,
                wire_widths=dict(self._net.widths) or None,
                include_companion_cap=self._net.companion,
            ),
        )
        if self._net.res_scale != 1.0 or self._net.cap_scale != 1.0:  # repro: noqa[R001] 1.0 is the exact "never scaled" default; replaying it through set_scales must be a no-op bit-for-bit
            state.set_scales(self._net.res_scale, self._net.cap_scale)
        for idx, term in self._overrides.items():
            state.set_terminal_override(idx, term)
        return state

    # -- internals --------------------------------------------------------------

    def _set_net(self, net: FlatNet) -> None:
        """Adopt freshly compiled columns; the next evaluate sweeps fully."""
        self._net = net
        pos = [0] * net.n
        for k, v in enumerate(net.order):
            pos[v] = k
        self._pos = pos
        self._cols: Optional[_Columns] = None
        self._dirty: set = set()
        self._invalidate()

    def _mark(self, node: int) -> None:
        self._dirty.add(node)
        self._invalidate()

    def _invalidate(self) -> None:
        self._finished: Optional[Tuple[float, Optional[int], Optional[int]]] = None
        self._up: Optional[List[float]] = None
        self._result: Optional[ARDResult] = None

    def _ensure_kernel(self) -> Tuple[float, Optional[int], Optional[int]]:
        """Bring the record columns up to date; the root's ``(ARD, src, snk)``."""
        if self._finished is None:
            if self._cols is None:
                self._cols = _kernel(self._net)
            elif self._dirty:
                walk = _dirty_paths(self._net, self._cols, self._dirty, self._pos)
                _kernel(self._net, self._cols, walk)
            self._dirty.clear()
            self._finished = _finish(self._net, *self._cols)
        return self._finished

    def _ensure_up(self) -> List[float]:
        if self._up is None:
            self._up = _up_pass(self._net, self._cols[0])
        return self._up

    # path-delay plumbing: ElmoreAnalyzer's views over the flat arrays

    def _node_view(self, v: int, entered_from: int) -> float:
        net = self._net
        down = self._cols[0]
        if entered_from == net.parent[v]:
            return down[v]  # Eq. 1 down
        rv = net.rep[v]
        if rv is not None:
            return rv[1]  # c_b
        if net.is_term[v]:
            return net.tcap[v]  # root terminal seen from its child
        total = 0.0
        if net.parent[v] is not None:
            total += net.wire_cap[v] + self._up[v]
        total += sum(
            net.wire_cap[u] + down[u]
            for u in net.kids[v]
            if u != entered_from
        )
        return total

    def _edge_index(self, a: int, b: int) -> int:
        parent = self._net.parent
        if parent[b] == a:
            return b
        if parent[a] == b:
            return a
        raise ValueError(f"nodes {a} and {b} are not adjacent")

    def _cap_into(self, frm: int, to: int) -> float:
        e = self._edge_index(frm, to)
        return self._net.wire_cap[e] + self._node_view(to, frm)

    def _wire_delay(self, frm: int, to: int) -> float:
        e = self._edge_index(frm, to)
        return self._net.wire_res[e] * (
            0.5 * self._net.wire_cap[e] + self._node_view(to, frm)
        )

    def _crossing_delay(self, at: int, came_from: int, going_to: int) -> float:
        c_a, c_b, d_ab, r_ab, d_ba, r_ba = self._net.rep[at]
        downward = came_from == self._net.parent[at]
        load = self._cap_into(at, going_to)
        if self._net.companion:
            load += c_b if downward else c_a
        if downward:
            return d_ab + r_ab * load
        return d_ba + r_ba * load


# -- batched evaluation --------------------------------------------------------


def evaluate_batch(
    nets: Sequence[RoutingTree],
    tech: Technology,
    *,
    contexts: Union[None, EvalContext, Sequence[Optional[EvalContext]]] = None,
    include_timing: bool = False,
) -> List[ARDResult]:
    """Compile and evaluate many nets in one call.

    ``contexts`` is ``None`` (bare evaluation for every net), a single
    :class:`EvalContext` applied to all nets, or a sequence parallel to
    ``nets``.
    ``include_timing=True`` materializes every per-node timing table
    (roughly doubling the work); the default returns scalar results.

    Results come back in input order.  Under ``REPRO_CHECK=1`` every result
    is cross-checked bit-for-bit against the reference record pass.
    """
    n_batch = len(nets)
    if isinstance(contexts, EvalContext) or contexts is None:
        ctx_list: List[Optional[EvalContext]] = [contexts] * n_batch
    else:
        ctx_list = list(contexts)
        if len(ctx_list) != n_batch:
            raise ValueError(
                f"contexts length {len(ctx_list)} != nets length {n_batch}"
            )

    results: List[ARDResult] = []
    total_nodes = sum(len(t) for t in nets)
    if obs.enabled():
        _OBS_BATCH_SIZE.observe(n_batch)
    with obs.trace("flat.batch", nets=n_batch, nodes=total_nodes):
        for tree, ctx in zip(nets, ctx_list):
            net = compile_net(tree, tech, ctx)
            down, ups, req, req_sink, diams = _kernel(net)
            best, src, snk = _finish(net, down, ups, req, req_sink, diams)
            timing: Dict[int, SubtreeTiming] = {}
            if include_timing:
                up = _up_pass(net, down)
                timing = _timing_table(
                    net, up, ups, req, req_sink, diams, best, src, snk
                )
            result = ARDResult(best, src, snk, timing)
            if contracts.contracts_enabled():
                contracts.verify_flat_consistency(
                    result, EvalState(tree, tech, ctx)
                )
            results.append(result)
    return results
