"""Optimal multisource repeater insertion (MSRI) — paper Sec. IV, Fig. 5.

Bottom-up dynamic programming over a rooted routing tree.  For every vertex
``v`` the algorithm computes a minimal set of candidate solutions for the
subtree ``T_v`` (see :mod:`repro.core.solution` for the characterization and
:mod:`repro.core.mfs` for the pruning); at the root — a terminal — every
surviving solution collapses to a scalar ``(cost, ARD)`` pair, and the
result is the full cost-versus-performance trade-off suite.  Per the
paper's Theorem 4.1 the suite is exact: every achievable dominant
``(cost, cap, q, arr(c_E), diam(c_E))`` combination is represented.

The vertex dispatch mirrors the paper's Fig. 5:

* leaf          → :func:`~repro.core.solution.leaf_solution` (Fig. 6), or a
  set of sized-driver leaf solutions in driver-sizing mode;
* branch vertex → pairwise :func:`~repro.core.solution.join` of the children
  (Fig. 7), except for the pairs a predictive stage certifies dominated
  by a pair sharing a parent before building them (docs/ALGORITHMS.md
  §16);
* insertion pt  → unbuffered solutions plus one
  :func:`~repro.core.solution.apply_repeater` per oriented library repeater
  (Fig. 8), except for the buffered candidates a predictive stage
  certifies dominated by a sibling before building them
  (docs/ALGORITHMS.md §15);
* root terminal → :func:`~repro.core.solution.evaluate_at_root` (Fig. 9);

with :func:`~repro.core.solution.augment_wire` (Fig. 10) extending each set
across the wire toward the parent.

Problem 2.1 queries (min cost subject to ``ARD <= spec``) and the
cost-oblivious min-ARD query are answered from the returned suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..check import contracts
from ..obs import core as obs
from ..rctree.engine import EvalContext
from ..rctree.topology import NodeKind, RoutingTree
from ..tech.buffers import Repeater, RepeaterLibrary
from ..tech.parameters import Technology
from ..tech.terminals import NEVER
from .mfs import mfs, mfs_pairwise
from .prefilter import (
    LEQ_FULL,
    domain_subset,
    leq_status,
    line_leq_status,
    min_diam_lower_bound,
)
from .pwl import _EPS, max_segment_count
from .solution import (
    JoinPieces,
    Placement,
    RootSolution,
    Solution,
    Trace,
    apply_repeater,
    augment_wire,
    buffered_summary,
    evaluate_at_root,
    join,
    join_pieces,
    leaf_solution,
)

__all__ = [
    "MSRIOptions",
    "MSRIStats",
    "MSRIResult",
    "insert_repeaters",
    "validate_msri_overrides",
]

# Observability metrics (naming contract: docs/OBSERVABILITY.md).  All are
# free while REPRO_OBS is off; the DP loop additionally hoists the enabled
# check out of its per-node body.
_OBS_NODES = obs.Counter("msri.nodes")
_OBS_GENERATED = obs.Counter("msri.solutions.generated")
_OBS_KEPT = obs.Counter("msri.solutions.kept")
_OBS_PRUNED = obs.Counter("msri.solutions.pruned")
_OBS_FRONT_WIDTH = obs.Histogram("msri.front_width")
_OBS_PWL_SEGMENTS = obs.Histogram("msri.pwl_segments")
_OBS_NODES_REUSED = obs.Counter("msri.engine.nodes_reused")
_OBS_PREFILTER_EXAMINED = obs.Counter("msri.prefilter.examined")
_OBS_PREFILTER_DROPPED = obs.Counter("msri.prefilter.dropped")
_OBS_CAP_SPEC_DROPPED = obs.Counter("msri.cap.spec_dropped")
_OBS_CAP_LOSSY_DROPPED = obs.Counter("msri.cap.lossy_dropped")
_OBS_CAP_EXCEEDED = obs.Counter("msri.cap.exceeded")
_OBS_SEG_OVER_BUDGET = obs.Counter("pwl.segments.over_budget")
_OBS_SEG_DROPPED = obs.Counter("pwl.segments.dropped")

#: Set size below which the Fig. 4 divide-and-conquer MFS falls back to
#: the pairwise pruner.
_MFS_LEAF_SIZE = 8

#: Override keys the wire/campaign/CLI layers may set on MSRIOptions.
_OVERRIDE_KEYS = (
    "prefilter",
    "max_front_width",
    "max_pwl_segments",
    "lossy",
    "spec",
    "quantize_bound",
)


def validate_msri_overrides(overrides: Optional[Dict]) -> Dict[str, object]:
    """Normalize a pruning-knob override dict from an untrusted layer.

    Shared by the CLI, the campaign config and the serve daemon so every
    entry point accepts the same knob names with the same coercions
    (``None``/empty → ``{}``).  Raises :class:`ValueError` on unknown keys
    or mistyped values; range checks live in
    :meth:`MSRIOptions.__post_init__`, which every path funnels through.
    """
    if not overrides:
        return {}
    if not isinstance(overrides, dict):
        raise ValueError(
            f"msri overrides must be an object, got {type(overrides).__name__}"
        )
    unknown = sorted(set(overrides) - set(_OVERRIDE_KEYS))
    if unknown:
        raise ValueError(
            f"unknown msri option(s) {', '.join(map(repr, unknown))}; "
            f"expected a subset of {', '.join(_OVERRIDE_KEYS)}"
        )
    out: Dict[str, object] = {}
    for key in ("prefilter", "lossy", "quantize_bound"):
        if key in overrides:
            if not isinstance(overrides[key], bool):
                raise ValueError(f"msri option {key!r} must be a boolean")
            out[key] = overrides[key]
    for key in ("max_front_width", "max_pwl_segments"):
        if key in overrides and overrides[key] is not None:
            value = overrides[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"msri option {key!r} must be an integer")
            if int(value) != value:
                raise ValueError(f"msri option {key!r} must be an integer")
            out[key] = int(value)
    if "spec" in overrides and overrides["spec"] is not None:
        spec = overrides["spec"]
        if isinstance(spec, bool) or not isinstance(spec, (int, float)):
            raise ValueError("msri option 'spec' must be a number")
        out["spec"] = float(spec)
    return out


@dataclass(frozen=True)
class MSRIOptions:
    """Knobs for the MSRI run.

    ``driver_options`` switches terminals from their fixed parameters to a
    library of sized drivers (see :mod:`repro.core.driver_sizing`); it maps
    the optimizer onto the paper's driver-sizing experiments.  ``library``
    may be None in pure driver-sizing mode (no repeaters offered).
    ``wire_library`` enables the wire-sizing extension: every
    positive-length segment independently picks one
    :class:`~repro.tech.buffers.WireClass`, paying its area cost.
    ``use_divide_and_conquer`` selects the Fig. 4 pruner versus the naive
    pairwise one (ablation A1).

    The bounded-growth knobs (``docs/PRUNING.md``):

    * ``prefilter`` — Shi–Li style predictive pruning: the allocation-free
      pair prescreen inside MFS, and the predictive repeater stage and
      predictive join, which certify candidates dominated before building
      them.  Exact (bit-identical fronts); on by default.
    * ``max_front_width`` — candidate-front width cap per prune site.  In
      exact mode the cap only drops solutions whose diameter lower bound
      already exceeds ``spec`` (certified infeasible); if the front still
      exceeds the cap it is kept intact and ``msri.cap.exceeded`` counts
      the site.  In ``lossy`` mode the front is deterministically thinned
      to the cap.
    * ``max_pwl_segments`` — per-function segment budget.  Exact mode only
      counts offenders (``pwl.segments.over_budget``); lossy mode replaces
      offending functions with their conservative upper-bound
      simplification (:meth:`~repro.core.pwl.PWL.simplified`).
    * ``spec`` — the timing spec (ps) that defines the feasible window for
      the exact cap's certificate (and the CLI's solution query).
    * ``lossy`` — opt-in: allow the caps to change results.  Requires at
      least one cap to act on.

    ``quantize_bound`` rounds the DP's external-capacitance domain bound
    ``c_max`` up to the next power of two.  The bound only needs to be an
    upper bound (any value at or above the net's total capacitance yields
    the same optimizer answers at the root), but it appears in every
    solution's domain, so two nets that differ anywhere get bit-different
    fronts everywhere.  Quantizing makes ``c_max`` a step function of net
    size: nets in the same bucket share subtree fronts, which is what lets
    :class:`~repro.core.msri_engine.IncrementalMSRI`'s content cache hit
    *across* trees (docs/ALGORITHMS.md §13).  Results under a quantized
    bound are self-consistent — a cold run with the same knob is
    bit-identical — but differ in the low bits from ``quantize_bound=False``
    runs because domain endpoints move.
    """

    library: Optional[RepeaterLibrary] = None
    driver_options: Optional[Sequence[object]] = None
    wire_library: Optional[Sequence[object]] = None
    use_divide_and_conquer: bool = True
    prefilter: bool = True
    max_front_width: Optional[int] = None
    max_pwl_segments: Optional[int] = None
    spec: Optional[float] = None
    lossy: bool = False
    quantize_bound: bool = False

    def __post_init__(self) -> None:
        if (
            self.library is None
            and self.driver_options is None
            and self.wire_library is None
        ):
            raise ValueError(
                "nothing to optimize: provide a repeater library, driver "
                "options, a wire library, or a combination"
            )
        if self.wire_library is not None and not self.wire_library:
            raise ValueError("wire_library may not be empty when given")
        if self.max_front_width is not None and self.max_front_width < 2:
            raise ValueError(
                f"max_front_width must be >= 2 (a front needs at least its "
                f"extremes), got {self.max_front_width}"
            )
        if self.max_pwl_segments is not None and self.max_pwl_segments < 1:
            raise ValueError(
                f"max_pwl_segments must be >= 1, got {self.max_pwl_segments}"
            )
        if self.lossy and self.max_front_width is None and (
            self.max_pwl_segments is None
        ):
            raise ValueError(
                "lossy mode needs a cap to act on: set max_front_width "
                "and/or max_pwl_segments"
            )


@dataclass
class MSRIStats:
    """Run statistics (solution-set sizes, pruning effectiveness, timing)."""

    nodes_processed: int = 0
    solutions_generated: int = 0
    solutions_after_pruning: int = 0
    max_set_size: int = 0
    max_segments: int = 0
    runtime_seconds: float = 0.0
    set_sizes: Dict[int, int] = field(default_factory=dict)
    #: Fronts installed from a cross-tree content cache (msri_cache hits).
    cache_hits: int = 0
    #: DP vertices skipped because a front was reused (cache hits count
    #: their whole subtree; engine-retained fronts likewise).  Reuse is
    #: reported separately from the generated/kept totals, so the
    #: conservation contract keeps holding per *computed* node.
    nodes_reused: int = 0

    def record(self, node: int, before: int, after: List[Solution]) -> Dict[str, int]:
        """Fold one node's prune into the totals; return its count record.

        The returned dict is the *single source* of the per-node counts:
        the DP driver feeds it verbatim to the conservation
        contract and to the ``msri.node`` observability point, so the
        stats totals and the obs labels cannot diverge.
        """
        kept = len(after)
        self.nodes_processed += 1
        self.solutions_generated += before
        self.solutions_after_pruning += kept
        self.max_set_size = max(self.max_set_size, kept)
        self.set_sizes[node] = kept
        widest = self.max_segments
        for s in after:
            arr = s.arr
            if arr is not None and len(arr._segments) > widest:
                widest = len(arr._segments)
            diam = s.diam
            if diam is not None and len(diam._segments) > widest:
                widest = len(diam._segments)
        self.max_segments = widest
        return {
            "node": node,
            "generated": before,
            "kept": kept,
            "pruned": before - kept,
        }

    def record_reused(
        self, node: int, kept: int, skipped: int, *, from_cache: bool
    ) -> None:
        """Fold one reused front into the totals.

        Deliberately does *not* touch ``solutions_generated`` /
        ``solutions_after_pruning``: those count only candidates the run
        actually constructed, so ``verify_msri_node_conservation`` stays
        valid per computed node.  ``skipped`` is the number of DP vertices
        the reuse made unnecessary (the whole subtree for a cache hit).
        """
        if from_cache:
            self.cache_hits += 1
        self.nodes_reused += skipped
        self.max_set_size = max(self.max_set_size, kept)
        self.set_sizes[node] = kept

    def front_width_p95(self) -> int:
        """95th percentile of the per-node surviving-front widths."""
        widths = sorted(self.set_sizes.values())
        if not widths:
            return 0
        return widths[min(len(widths) - 1, (len(widths) * 95) // 100)]


@dataclass(frozen=True)
class MSRIResult:
    """The suite of Pareto-optimal complete solutions, cheapest first."""

    solutions: Tuple[RootSolution, ...]
    stats: MSRIStats
    tree: RoutingTree

    def min_cost_meeting(self, spec: float) -> Optional[RootSolution]:
        """Cheapest solution with ``ARD <= spec`` (Problem 2.1); None if
        the spec is unachievable even at maximum cost."""
        for s in self.solutions:
            if s.ard <= spec:
                return s
        return None

    def min_ard(self) -> RootSolution:
        """The fastest solution regardless of cost."""
        return min(self.solutions, key=lambda s: s.ard)

    def min_cost(self) -> RootSolution:
        """The cheapest solution regardless of ARD."""
        return self.solutions[0]

    def tradeoff(self) -> List[Tuple[float, float]]:
        """The (cost, ARD) frontier, cheapest first."""
        return [(s.cost, s.ard) for s in self.solutions]

    def with_repeater_count(self, count: int) -> Optional[RootSolution]:
        """Fastest solution using exactly ``count`` repeaters (Fig. 11
        reports such fixed-budget solutions); None if no such solution is
        on the frontier."""
        matches = [s for s in self.solutions if s.repeater_count() == count]
        if not matches:
            return None
        return min(matches, key=lambda s: s.ard)


def insert_repeaters(
    tree: RoutingTree,
    tech: Technology,
    options: MSRIOptions,
    *,
    context: Optional[EvalContext] = None,
) -> MSRIResult:
    """Run the MSRI dynamic program and return the (cost, ARD) suite.

    ``context`` carries the evaluation knobs shared with the timing
    engines.  Only ``wire_widths`` is meaningful here (fixed per-edge width
    factors the DP optimizes *around*); a pre-set ``assignment`` or the
    companion-capacitance model is rejected — the DP derives the assignment
    itself and prices repeaters under the paper's Fig. 8 model.
    """
    result, _ = _solve(tree, tech, options, _context_widths(tree, context))
    return result


def _solve(
    tree: RoutingTree,
    tech: Technology,
    options: MSRIOptions,
    widths: Dict[int, float],
    *,
    fronts: Optional[Dict[int, List[Solution]]] = None,
    fronts_bound: Optional[float] = None,
    cache=None,
) -> Tuple[MSRIResult, float]:
    """The one bottom-up MSRI fold (Fig. 5) behind every entry point.

    ``fronts`` supplies per-vertex fronts an earlier solve computed under
    the domain bound ``fronts_bound``; a moved bound flushes them, since
    every front embeds it.  The dict keeps every front this solve
    computes; without it, consumed child fronts are freed.  An exact-mode
    ``cache`` (a :class:`~repro.core.msri_cache.MSRICache`) is looked up,
    and filled, at the root — whose suite answers the whole solve — and
    at :func:`_cache_site` vertices.  The top-down walk stops at supplied
    fronts and cache hits, so only the vertices below neither are
    computed.  Returns the result and ``c_max``.
    """
    t0 = time.perf_counter()  # repro: noqa[R009] wall-clock feeds stats only, never the result
    stats = MSRIStats()
    c_max = _domain_bound(tree, tech, options, widths)
    prune = _make_pruner(options)
    checking = contracts.contracts_enabled()
    observing = obs.enabled()  # hoisted: the per-node loop stays obs-free when off
    keep = fronts is not None
    sets: Dict[int, List[Solution]] = fronts if keep else {}
    if sets and c_max != fronts_bound:  # repro: noqa[R001] bound change detection must be exact — fronts embed these bits
        sets.clear()
    if options.lossy:
        # lossy thinning is an approximation regime; the cross-tree cache
        # stays exact-mode only (docs/ALGORITHMS.md §13)
        cache = None
    if cache is not None:
        # msri_cache imports this module, so its helpers load lazily
        from .msri_cache import (
            front_key,
            options_fingerprint,
            pack_front,
            pack_root,
            root_key,
            subtree_signatures,
            unpack_front,
            unpack_root,
        )

        sigs = subtree_signatures(tree, widths)
        fingerprint = options_fingerprint(tech, options)

    with obs.trace("msri.run", nodes=len(tree)) as span:
        record = None
        if cache is not None:
            suite_key = root_key(sigs[tree.root], fingerprint, c_max)
            record = cache.get(suite_key)
        if record is not None:
            # the whole net's suite: no vertex, augment or root evaluation
            # runs, and the stats are those of a root-child front hit.  Only
            # a terminal-rooted net's suite is ever stored, so the root of a
            # net with the same signature has exactly one child.
            (child,) = tree.children(tree.root)
            width, roots = unpack_root(tree, record)
            stats.record_reused(child, width, len(tree) - 1, from_cache=True)

        # top-down walk; children are pushed in order, so the reversed
        # walk is the children-before-parent order of dfs_postorder
        order: List[int] = []
        stack = [] if record is not None else list(tree.children(tree.root))
        sizes = (
            _subtree_sizes(tree) if stack and (sets or cache is not None) else None
        )
        while stack:
            v = stack.pop()
            if v in sets:
                stats.record_reused(v, len(sets[v]), sizes[v], from_cache=False)
                continue
            if cache is not None and _cache_site(tree, v):
                records = cache.get(front_key(sigs[v], fingerprint, c_max))
                if records is not None:
                    sets[v] = unpack_front(tree, v, records)
                    stats.record_reused(v, len(records), sizes[v], from_cache=True)
                    continue
            order.append(v)
            stack.extend(tree.children(v))

        for v in reversed(order):
            with obs.trace("msri.prune", node=v) if observing else obs.NULL_SPAN:
                generated, front = _node_front(
                    tree, tech, v, sets, c_max, prune, options, widths
                )
            # one count record drives the contract, the stats totals and
            # the obs point — the three views cannot diverge
            counts = stats.record(v, generated, front)
            if checking:
                contracts.verify_msri_node_conservation(
                    counts["node"], counts["generated"], counts["kept"]
                )
            if observing:
                obs.point("msri.node", **counts)
                _OBS_FRONT_WIDTH.observe(counts["kept"])
            sets[v] = front
            if not keep:
                for u in tree.children(v):
                    del sets[u]  # children fully consumed; free memory
            if cache is not None and _cache_site(tree, v):
                cache.put(
                    front_key(sigs[v], fingerprint, c_max),
                    pack_front(tree, v, front),
                )

        if record is None:
            roots = _root_set(tree, tech, sets, c_max, options, widths)
            if cache is not None:
                (child,) = tree.children(tree.root)
                cache.put(suite_key, pack_root(tree, len(sets[child]), roots))
        if observing:
            _OBS_NODES.add(stats.nodes_processed)
            _OBS_GENERATED.add(stats.solutions_generated)
            _OBS_KEPT.add(stats.solutions_after_pruning)
            _OBS_PRUNED.add(
                stats.solutions_generated - stats.solutions_after_pruning
            )
            if stats.nodes_reused:
                _OBS_NODES_REUSED.add(stats.nodes_reused)
            _OBS_PWL_SEGMENTS.observe(stats.max_segments)
            span.set(
                nodes=stats.nodes_processed,
                generated=stats.solutions_generated,
                kept=stats.solutions_after_pruning,
                front=stats.max_set_size,
                compute=len(order),
                reused=stats.nodes_reused,
                cache_hits=stats.cache_hits,
            )
    stats.runtime_seconds = time.perf_counter() - t0  # repro: noqa[R009] stats only
    return MSRIResult(solutions=tuple(roots), stats=stats, tree=tree), c_max


def _subtree_sizes(tree: RoutingTree) -> List[int]:
    sizes = [1] * len(tree)
    for v in tree.dfs_postorder():
        for u in tree.children(v):
            sizes[v] += sizes[u]
    return sizes


def _cache_site(tree: RoutingTree, v: int) -> bool:
    """Whether ``v``'s front is worth caching/looking up.

    Branch points gate whole subtrees, so a hit there skips the most
    work, and the root suite, looked up before the walk, answers the
    whole net; insertion-chain and leaf fronts are cheap to recompute
    relative to the cost of packing their traces, so they are neither
    stored nor looked up (keeping hit/miss counters meaningful).
    """
    return tree.node(v).kind is NodeKind.STEINER


# -- per-kind solution set construction ------------------------------------------


def _node_front(
    tree: RoutingTree,
    tech: Technology,
    v: int,
    sets: Dict[int, List[Solution]],
    c_max: float,
    prune,
    options: MSRIOptions,
    widths: Optional[Dict[int, float]] = None,
) -> Tuple[int, List[Solution]]:
    """Build and prune the front of one non-root vertex (Fig. 5).

    Returns ``(generated, front)``; ``generated`` also counts the
    candidates the predictive join and insertion stages certified
    dominated without building them, so ``generated == kept + pruned``
    per node.  Each vertex is pruned exactly once.
    """
    node = tree.node(v)
    if node.kind is NodeKind.TERMINAL:
        raw = _leaf_set(node, v, c_max, options)
        return len(raw), prune(raw)
    if node.kind is NodeKind.STEINER:
        raw, unbuilt, complete = _branch_set(
            tree, tech, v, sets, c_max, prune, options, widths
        )
    else:
        raw, unbuilt, complete = _insertion_set(
            tree, tech, v, sets, c_max, options, widths
        )
    return len(raw) + unbuilt, prune(raw, unbuilt, complete)


def _leaf_set(node, v: int, c_max: float, options: MSRIOptions) -> List[Solution]:
    term = node.terminal
    if term is None:
        raise RuntimeError(f"leaf node {v} carries no terminal")
    if options.driver_options is None:
        return [leaf_solution(term, c_max)]
    out = []
    for opt in options.driver_options:
        out.append(
            leaf_solution(
                opt.applied_to(term),
                c_max,
                cost=opt.cost,
                trace=Trace().extended(Placement(v, opt)),
            )
        )
    return out


def _augment_over_edge(
    tree: RoutingTree,
    tech: Technology,
    child: int,
    solutions: List[Solution],
    c_max: float,
    options: MSRIOptions,
    widths: Optional[Dict[int, float]] = None,
) -> List[Solution]:
    """Extend a child's solutions across the wire toward its parent.

    Without a wire library this is one plain Fig. 10 augment per solution;
    with one, every positive-length segment fans out over the width menu
    (the wire-sizing extension), charging each class's area cost and
    recording the choice against the edge's child node.  A fixed context
    width factor on the edge rescales the base wire before either path.
    """
    length = tree.edge_length(child)
    w = (widths or {}).get(child, 1.0)
    r = tech.wire_resistance(length) / w
    c = tech.wire_capacitance(length) * w
    if options.wire_library is None or length <= 0.0:
        out = []
        for s in solutions:
            a = augment_wire(s, r, c, c_max)
            if a is not None:
                out.append(a)
        return out
    out = []
    for wc in options.wire_library:
        extra = wc.cost(length)
        placement = Placement(child, wc)
        for s in solutions:
            a = augment_wire(
                s,
                wc.resistance(r),
                wc.capacitance(c),
                c_max,
                extra_cost=extra,
                trace_placement=placement,
            )
            if a is not None:
                out.append(a)
    return out


def _augmented_child_sets(
    tree: RoutingTree,
    tech: Technology,
    v: int,
    sets: Dict[int, List[Solution]],
    c_max: float,
    options: MSRIOptions,
    widths: Optional[Dict[int, float]] = None,
) -> List[List[Solution]]:
    """Each child's solution set extended across its wire up to ``v``."""
    return [
        _augment_over_edge(tree, tech, u, sets[u], c_max, options, widths)
        for u in tree.children(v)
    ]


def _branch_set(
    tree: RoutingTree,
    tech: Technology,
    v: int,
    sets: Dict[int, List[Solution]],
    c_max: float,
    prune,
    options: MSRIOptions,
    widths: Optional[Dict[int, float]] = None,
) -> Tuple[List[Solution], int, Optional[List[Solution]]]:
    """The joined candidates of a branch vertex (Fig. 7).

    Returns the last pairwise join's ``(built, unbuilt, complete)``, as
    :func:`_joined_pairs` does, unpruned: the caller prunes every vertex
    once.
    """
    child_sets = _augmented_child_sets(tree, tech, v, sets, c_max, options, widths)
    current = child_sets[0]
    unbuilt, complete = 0, None
    for n, other in enumerate(child_sets[1:]):
        if n:
            # prune between pairwise joins: branch points are where
            # suboptimal combinations explode (the paper notes pruning is
            # most effective when constructing solutions at a branch point
            # from its children)
            current = prune(current, unbuilt, complete)
        current, unbuilt, complete = _joined_pairs(
            current, other, c_max, options.prefilter
        )
    return current, unbuilt, complete


def _joined_pairs(
    left: List[Solution],
    right: List[Solution],
    c_max: float,
    predictive: bool,
) -> Tuple[List[Solution], int, Optional[List[Solution]]]:
    """The candidates ``join(a, b)`` for ``a`` in ``left``, ``b`` in ``right``.

    Returns ``(built, unbuilt, complete)`` like :func:`_insertion_set`.
    With ``predictive`` (and at least two pairs) the pairs are swept in
    the MFS order ``(parity, cost, cap, q, pair index)``, and a pair an
    earlier built pair sharing one of its parents certifies dominated is
    not built; ``unbuilt`` counts those.  The certificate is first read
    from the parents' lines (:func:`_certified`), and only a pair it
    does not settle gets its pieces for the full check
    (:func:`_dominated`, docs/ALGORITHMS.md §16).  The rest are built in
    sweep order, which orders every exact scalar tie by pair index, as a
    full build's uids would.  Under contracts every pair is built, in
    pair order, and ``complete`` is that full set; otherwise ``complete``
    is None.
    """
    n_right = len(right)
    if not predictive or len(left) * n_right < 2:
        built = []
        for a in left:
            for b in right:
                j = join(a, b, c_max)
                if j is not None:
                    built.append(j)
        return built, 0, None
    # the scalars join gives each pair, computed by the same expressions;
    # parity-mismatched pairs are never candidates
    entries = []
    for i, a in enumerate(left):
        parity, cost, cap, q = a.parity, a.cost, a.cap, a.q
        base = i * n_right
        for k, b in enumerate(right):
            if b.parity == parity:
                entries.append(
                    (parity, cost + b.cost, cap + b.cap, max(q, b.q), base + k)
                )
    entries.sort()  # the pair index is unique: nothing past it is compared
    complete = None
    if contracts.contracts_enabled():
        full = [join(a, b, c_max) for a in left for b in right]
        complete = [j for j in full if j is not None]
    lines_left = [_parent_lines(a) for a in left]
    lines_right = [_parent_lines(b) for b in right]
    margin = _CERT_MARGIN * _line_scale(lines_left + lines_right, c_max)
    # built pairs by parent: a pair's likeliest killers share a parent
    rows: List[List[_Built]] = [[] for _ in left]
    cols: List[List[_Built]] = [[] for _ in right]
    built: List[Solution] = []
    unbuilt = 0
    for _, _, cap, q, index in entries:
        i, k = divmod(index, n_right)
        a = left[i]
        b = right[k]
        row = rows[i]
        col = cols[k]
        found = _UNSUSPECTED
        if row or col:
            sa = lines_left[i]
            sb = lines_right[k]
            certify = _certified_lines if sa[4] and sb[4] else _certified
            found = certify(a, b, sa, sb, row, col, cap, q, margin, c_max)
        if found is _UNSUSPECTED:
            j = join(a, b, c_max) if complete is None else full[index]
        elif found is _NO_PAIR:
            continue  # join returns None: not a candidate
        elif found is not None:
            if complete is not None:
                _check_certified(a, b, c_max, found.pair)
            unbuilt += 1
            continue
        else:
            pieces = join_pieces(a, b, c_max)
            if pieces is None:
                continue  # join returns None: not a candidate
            # earlier entries cost no more: the cap and q gates remain
            suspects = [r.pair for r in row if r.cap <= cap and r.q <= q]
            suspects.extend(r.pair for r in col if r.cap <= cap and r.q <= q)
            if _dominated(pieces, suspects):
                unbuilt += 1
                continue
            j = join(a, b, c_max, pieces) if complete is None else full[index]
        if j is not None:
            built.append(j)
            record = _Built(j, lines_left[i], lines_right[k])
            row.append(record)
            col.append(record)
    return built, unbuilt, complete


#: Margin of the parent-level join certificate (:func:`_certified`), per
#: unit of the join's line scale (:func:`_line_scale`).  A built ``arr``
#: or ``diam`` is the maximum of its term lines up to three kinds of
#: error at a point ``x`` of ``[0, c_max]``, each from a PWL tolerance:
#:
#: * ``_canonicalize`` merges touching lines whose intercepts and slopes
#:   agree within ``_EPS * max(1, |coef|)``, so the kept line is off by
#:   at most ``_EPS * (max(1, |intercept|) + max(1, |slope|) * c_max)``;
#: * ``_combined`` takes lines whose slopes differ by at most ``_EPS`` as
#:   parallel and keeps the midpoint winner, off by at most
#:   ``_EPS * c_max`` at an end of the overlap;
#: * ``_combined`` does not cut at a crossing within ``_EPS`` of an
#:   overlap's end, so the piece there is off by at most
#:   ``_EPS * |slope difference| <= 2 * _EPS * max |slope|``.
#:
#: Together these stay under ``2 * _EPS * scale`` per primitive call.  A
#: joined ``diam`` passes through six calls (one shift, one restrict,
#: one scalar add and three maxima) and ``arr`` through fewer, so the
#: suspect's and the pair's built functions are each within
#: ``12 * _EPS * scale`` of their term maxima.  Lines ``32 * _EPS *
#: scale`` apart therefore leave the built functions apart by more than
#: the rounding of ``leq_status``'s differences: the built pieces cannot
#: cross where the lines do not.  Bitwise-identical lines are never that
#: far apart, so ties are left to the full check (but see
#: :func:`_shared_top`).
_CERT_MARGIN = 32.0 * _EPS

#: :func:`_certified`'s answers besides a certifying suspect or None: no
#: built pair passes the pair's scalar gates, or the pair has no domain
#: (``join`` returns None for it).
_UNSUSPECTED = object()
_NO_PAIR = object()

_INF = math.inf


def _parent_lines(s: Solution) -> tuple:
    """A join parent's line summary: ``(arr segments, diam segments, cap,
    q, lines)``, a missing function as None and an absent sink's ``q`` as
    None.

    ``lines`` is ``(arr intercept, arr slope, diam intercept, diam slope,
    cap, q)`` when the domain is one interval and each function one
    segment, a missing function as the line ``-inf``, for
    :func:`_certified_lines`; otherwise None.
    """
    arr = None if s.arr is None else s.arr._segments
    diam = None if s.diam is None else s.diam._segments
    lines = None
    if len(s.domain._intervals) == 1 and (arr is None or len(arr) == 1) and (
        diam is None or len(diam) == 1
    ):
        a_ic, a_sl = (-_INF, 0.0) if arr is None else arr[0][2:]
        d_ic, d_sl = (-_INF, 0.0) if diam is None else diam[0][2:]
        lines = (a_ic, a_sl, d_ic, d_sl, s.cap, s.q)
    return arr, diam, s.cap, None if s.q == NEVER else s.q, lines


def _line_scale(lines: List[tuple], c_max: float) -> float:
    """The magnitude every term line of a join stays within on
    ``[0, c_max]``: ``1 + V + (1 + S) * (1 + c_max)``, where a term's
    intercept ``intercept + slope * cap + q`` is at most ``V`` and its
    slope at most ``S`` in absolute value (see ``_CERT_MARGIN``)."""
    top_ic = top_sl = top_cap = top_q = 0.0
    for arr, diam, cap, q, _ in lines:
        if cap > top_cap:
            top_cap = cap
        if q is not None and abs(q) > top_q:
            top_q = abs(q)
        for segs in (arr, diam):
            if segs is not None:
                for _, _, ic, sl in segs:
                    if abs(ic) > top_ic:
                        top_ic = abs(ic)
                    if abs(sl) > top_sl:
                        top_sl = abs(sl)
    top_ic += top_sl * top_cap + top_q
    return 1.0 + top_ic + (1.0 + top_sl) * (1.0 + c_max)


def _pair_terms(sa: tuple, sb: tuple) -> Tuple[list, list, list, list]:
    """The ``arr`` and ``diam`` terms of ``join(a, b)`` from the parents'
    line summaries, as :func:`~repro.core.solution.join_pieces` forms
    them: each side's arrival and diameter shifted by the other side's
    cap, and each side's shifted arrival plus the other side's ``q``.

    Returns ``(arr lines, arr others, diam lines, diam others)``.  A term
    of a one-segment function is its line ``(intercept, slope)`` in the
    joined pair's coordinate, by the expressions of ``_shifted_into`` and
    ``_add_linear``; any other is ``(segments, shift, q)``.
    """
    arr_lines = []
    diam_lines = []
    arr_multi = []
    diam_multi = []
    for arr, diam, shift, q in ((sa[0], sa[1], sb[2], sb[3]), (sb[0], sb[1], sa[2], sa[3])):
        if diam is not None:
            if len(diam) == 1:
                _, _, ic, sl = diam[0]
                diam_lines.append((ic + sl * shift, sl))
            else:
                diam_multi.append((diam, shift, 0.0))
        if arr is not None:
            if len(arr) == 1:
                _, _, ic, sl = arr[0]
                ic = ic + sl * shift
                arr_lines.append((ic, sl))
                if q is not None:
                    diam_lines.append((ic + q, sl))
            else:
                arr_multi.append((arr, shift, 0.0))
                if q is not None:
                    diam_multi.append((arr, shift, q))
    return arr_lines, arr_multi, diam_lines, diam_multi


def _suspect_lines(sa: tuple, sb: tuple) -> tuple:
    """A built pair's terms as a suspect reads them: ``(arr lines, arr
    exact, diam lines, diam exact)``.

    A term of several segments stands as the lines of all its segments:
    at any point it equals one of them, so lines below a pair's term
    bound it too.  ``exact`` says no such term was split, so each line
    is a term, bit for bit (:func:`_shared_top`).
    """
    arr, arr_multi, diam, diam_multi = _pair_terms(sa, sb)
    for lines, multi in ((arr, arr_multi), (diam, diam_multi)):
        for segs, shift, add in multi:
            for _, _, ic, sl in segs:
                lines.append((ic + sl * shift + add, sl))
    return arr, not arr_multi, diam, not diam_multi


class _Built:
    """A built pair as the predictive sweep's later pairs read it: its
    scalar gates, the pair, and its terms as a suspect
    (:func:`_suspect_lines`), computed from its parents' line summaries
    when a later pair first needs them."""

    __slots__ = ("cap", "q", "pair", "_parents", "_lines")

    def __init__(self, pair: Solution, sa: tuple, sb: tuple) -> None:
        self.cap = pair.cap
        self.q = pair.q
        self.pair = pair
        self._parents = (sa, sb)
        self._lines: Optional[tuple] = None

    def lines(self) -> tuple:
        lines = self._lines
        if lines is None:
            lines = self._lines = _suspect_lines(*self._parents)
        return lines


def _certified(
    a: Solution, b: Solution, sa: tuple, sb: tuple, row: List[_Built],
    col: List[_Built], cap: float, q: float, margin: float, c_max: float,
):
    """A suspect the parents' lines certify to dominate ``join(a, b)``.

    ``sa`` and ``sb`` are the parents' line summaries, and ``row`` and
    ``col`` the sweep's built pairs sharing ``a`` and ``b``.  The
    suspects among them are those within the pair's ``cap`` and ``q``:
    the sweep order already puts their cost at or below its own.  They
    are tried newest first, column before row, where killers turn up
    soonest on the ledger's nets; the answer does not depend on it.  A
    suspect certifies the pair when its domain contains the pair's and,
    for ``arr`` and for ``diam``, each of its lines
    (:func:`_suspect_lines`) lies below one of the pair's terms by more
    than ``margin`` on the span of the pair's domain
    (:func:`_lines_below`), or one line on top of both functions is
    shared (:func:`_shared_top`); docs/ALGORITHMS.md §16.  Such a pair
    is one :func:`_dominated` drops on its built pieces.

    Returns the certifying suspect; None when there are suspects and
    none certifies; ``_UNSUSPECTED`` when there is no suspect;
    ``_NO_PAIR`` when the pair has no domain.  Two parents with
    one-segment functions on one interval take :func:`_certified_lines`
    instead, which decides the same way.
    """
    domain = arr_pieces = diam_pieces = None
    for group in (col, row):
        for r in reversed(group):
            if r.cap > cap or r.q > q:
                continue
            if domain is None:
                # join_pieces' domain, by the same call
                domain = a.domain.shift_clamp(
                    -b.cap, 0.0, c_max, meet=(b.domain, -a.cap)
                )
                if domain.is_empty:
                    return _NO_PAIR
            if not domain_subset(domain, r.pair.domain):
                continue
            k_arr, arr_exact, k_diam, diam_exact = r.lines()
            if arr_pieces is None:
                ivs = domain._intervals
                d_lo = ivs[0][0]
                d_hi = ivs[-1][1]
                p_arr, arr_multi, p_diam, diam_multi = _pair_terms(sa, sb)
                arr_pieces = _term_pieces(p_arr, arr_multi, d_lo, d_hi)
            if not (
                _lines_below(k_arr, arr_pieces, d_lo, d_hi, margin)
                or (arr_exact and not arr_multi and _shared_top(
                    k_arr, p_arr, d_lo, d_hi, margin
                ))
            ):
                continue
            if diam_pieces is None:
                diam_pieces = _term_pieces(p_diam, diam_multi, d_lo, d_hi)
            if _lines_below(k_diam, diam_pieces, d_lo, d_hi, margin) or (
                diam_exact and not diam_multi
                and _shared_top(k_diam, p_diam, d_lo, d_hi, margin)
            ):
                return r
    return _UNSUSPECTED if domain is None else None


def _term_pieces(
    lines: List[Tuple[float, float]], multi: List[tuple], d_lo: float, d_hi: float
) -> Tuple[list, list]:
    """A function's terms (:func:`_pair_terms`) over the span ``[d_lo,
    d_hi]``, as ``(ends, pieces)``.  A line is its values at the span's
    ends; a term of several segments is its pieces ``(x0, x1, value at
    x0, value at x1)``, one per segment meeting the span, clipped to it,
    in the pair's coordinate.  Where the pair is defined, each term is
    its pieces' lines."""
    ends = [(ic + sl * d_lo, ic + sl * d_hi) for ic, sl in lines]
    terms = []
    for segs, shift, add in multi:
        pieces = []
        for lo, hi, ic, sl in segs:
            lo = lo - shift
            hi = hi - shift
            if lo <= d_hi and hi >= d_lo:
                x0 = d_lo if d_lo > lo else lo
                x1 = d_hi if d_hi < hi else hi
                ic = ic + sl * shift + add
                pieces.append((x0, x1, ic + sl * x0, ic + sl * x1))
        if pieces:  # a term missing from the span bounds nothing
            terms.append(pieces)
    return ends, terms


def _lines_below(
    k_lines: List[Tuple[float, float]],
    p_terms: Tuple[list, list],
    d_lo: float,
    d_hi: float,
    margin: float,
) -> bool:
    """Whether each suspect line lies below some pair term
    (:func:`_term_pieces`) by more than ``margin``: at both ends of each
    of that term's pieces, so on the whole piece.  A line need not be
    defined on the whole span: the claim about the line extended is the
    stronger one."""
    ends, terms = p_terms
    for ki, ks in k_lines:
        lo = ki + ks * d_lo + margin
        hi = ki + ks * d_hi + margin
        for v0, v1 in ends:
            if lo < v0 and hi < v1:
                break
        else:
            for term in terms:
                for x0, x1, v0, v1 in term:
                    if not (ki + ks * x0 + margin < v0 and ki + ks * x1 + margin < v1):
                        break
                else:
                    break
            else:
                return False
    return True


def _shared_top(
    k_lines: List[Tuple[float, float]],
    p_lines: List[Tuple[float, float]],
    d_lo: float,
    d_hi: float,
    margin: float,
) -> bool:
    """Whether one line, a term of both functions bit for bit, lies above
    every other term of either by more than ``margin`` on the span.

    Then ``_combined`` never cuts that line and takes it as each piece's
    midpoint winner, so both built functions are that line wherever the
    pair is defined: ``leq_status`` reads differences of exactly zero.
    Both functions must be lines only (the callers check ``exact``).
    The comparison is :func:`_lines_below`'s, float for float, so a
    suspect line that fails there and is not a pair line fails here too
    (:func:`_certified_lines` relies on it).
    """
    for t in k_lines:
        if t in p_lines:
            ti, ts = t
            t_lo = ti + ts * d_lo
            t_hi = ti + ts * d_hi
            for lines in (k_lines, p_lines):
                for ic, sl in lines:
                    if not (
                        (ic == ti and sl == ts)
                        or (ic + sl * d_lo + margin < t_lo and ic + sl * d_hi + margin < t_hi)
                    ):
                        return False
            return True
    return False


def _certified_lines(
    a: Solution, b: Solution, sa: tuple, sb: tuple, row: List[_Built],
    col: List[_Built], cap: float, q: float, margin: float, c_max: float,
):
    """:func:`_certified` for two parents with line summaries (``sa[4]``
    and ``sb[4]``), nearly all repeater-mode pairs.

    The pair's domain is one interval, and its terms are at most six
    lines, so their values at the span's ends are plain floats, computed
    once a suspect needs them: no term lists, pieces or calls per
    suspect.  The comparisons are :func:`_lines_below`'s, a missing term
    being the line ``-inf``, so the answer is :func:`_certified`'s.  A
    suspect line with no pair line above it can only pass as a shared
    top line, which is then one of the pair's lines, so
    :func:`_shared_top` runs only on such a tie.
    """
    domain = None
    for group in (col, row):
        for r in reversed(group):
            if r.cap > cap or r.q > q:
                continue
            if domain is None:
                # join_pieces' domain, by the same call
                domain = a.domain.shift_clamp(
                    -b.cap, 0.0, c_max, meet=(b.domain, -a.cap)
                )
                if domain.is_empty:
                    return _NO_PAIR
                (d_lo, d_hi), = domain._intervals
                aa_ic, aa_sl, ad_ic, ad_sl, a_cap, a_q = sa[4]
                ba_ic, ba_sl, bd_ic, bd_sl, b_cap, b_q = sb[4]
                ends = 0  # 1: arr values known, 2: diam values too
            if not domain_subset(domain, r.pair.domain):
                continue
            k_arr, arr_exact, k_diam, diam_exact = r.lines()
            if not ends:
                # arrivals shifted by the other side's cap
                ia = aa_ic + aa_sl * b_cap
                ib = ba_ic + ba_sl * a_cap
                a0 = ia + aa_sl * d_lo
                a1 = ia + aa_sl * d_hi
                b0 = ib + ba_sl * d_lo
                b1 = ib + ba_sl * d_hi
                ends = 1
            ok = True
            for ki, ks in k_arr:
                lo = ki + ks * d_lo + margin
                hi = ki + ks * d_hi + margin
                if not ((lo < a0 and hi < a1) or (lo < b0 and hi < b1)):
                    ok = (
                        arr_exact
                        and ((ki == ia and ks == aa_sl) or (ki == ib and ks == ba_sl))
                        and _shared_top(k_arr, _pair_terms(sa, sb)[0], d_lo, d_hi, margin)
                    )
                    break
            if not ok:
                continue
            if ends == 1:
                # diameters shifted by the other side's cap; arrivals plus
                # the other side's q
                ida = ad_ic + ad_sl * b_cap
                idb = bd_ic + bd_sl * a_cap
                iqa = ia + b_q
                iqb = ib + a_q
                da0 = ida + ad_sl * d_lo
                da1 = ida + ad_sl * d_hi
                db0 = idb + bd_sl * d_lo
                db1 = idb + bd_sl * d_hi
                qa0 = iqa + aa_sl * d_lo
                qa1 = iqa + aa_sl * d_hi
                qb0 = iqb + ba_sl * d_lo
                qb1 = iqb + ba_sl * d_hi
                ends = 2
            for ki, ks in k_diam:
                lo = ki + ks * d_lo + margin
                hi = ki + ks * d_hi + margin
                if not (
                    (lo < da0 and hi < da1) or (lo < db0 and hi < db1)
                    or (lo < qa0 and hi < qa1) or (lo < qb0 and hi < qb1)
                ):
                    ok = (
                        diam_exact
                        and (
                            (ki == ida and ks == ad_sl) or (ki == idb and ks == bd_sl)
                            or (ki == iqa and ks == aa_sl) or (ki == iqb and ks == ba_sl)
                        )
                        and _shared_top(k_diam, _pair_terms(sa, sb)[2], d_lo, d_hi, margin)
                    )
                    break
            if ok:
                return r
    return _UNSUSPECTED if domain is None else None


def _check_certified(a: Solution, b: Solution, c_max: float, killer: Solution) -> None:
    """Contract: a pair the parents' lines certify is one the full check
    on its built pieces drops too."""
    pieces = join_pieces(a, b, c_max)
    if pieces is None or not _dominated(pieces, [killer]):
        raise contracts.ContractViolation(
            "predictive join: the parents' lines certify a pair that the "
            "built pieces do not"
        )


def _dominated(pieces: JoinPieces, killers: List[Solution]) -> bool:
    """Whether a killer certifies the joined pair ``pieces`` dominated.

    The killers are built pairs earlier in the MFS order whose scalars
    are no worse under exact comparison; the rest of the full certificate
    (docs/ALGORITHMS.md §12) is domain containment and ``LEQ_FULL`` on
    ``arr`` and ``diam``, classified by
    :func:`~repro.core.prefilter.leq_status` on the pieces
    :func:`~repro.core.solution.join` builds the pair from.
    """
    domain, arr, diam = pieces
    for k in killers:
        # None is the identically -inf function, as in leq_status
        if (
            domain_subset(domain, k.domain)
            and (k.arr is None or (
                arr is not None and leq_status(k.arr, arr) == LEQ_FULL))
            and (k.diam is None or (
                diam is not None and leq_status(k.diam, diam) == LEQ_FULL))
        ):
            return True
    return False


def _insertion_set(
    tree: RoutingTree,
    tech: Technology,
    v: int,
    sets: Dict[int, List[Solution]],
    c_max: float,
    options: MSRIOptions,
    widths: Optional[Dict[int, float]] = None,
) -> Tuple[List[Solution], int, Optional[List[Solution]]]:
    """The candidates of an insertion point (Fig. 8): unbuffered + buffered.

    Returns ``(built, unbuilt, complete)``.  Under ``options.prefilter``
    the predictive stage (:func:`_buffered_survivors`) certifies some
    buffered candidates dominated by a sibling from four scalars, and
    only the rest are built; ``unbuilt`` counts the others.  Under
    contracts every buffered candidate is built, in parent order, and
    ``complete`` is that full set, for the pruner to check its front
    against; otherwise ``complete`` is None.
    """
    (unbuffered,) = _augmented_child_sets(tree, tech, v, sets, c_max, options, widths)
    out = list(unbuffered)
    if options.library is None:
        return out, 0, None
    if not options.prefilter:
        for rep in options.library.oriented_options():
            for s in unbuffered:
                buffered = apply_repeater(s, rep, v, c_max)
                if buffered is not None:
                    out.append(buffered)
        return out, 0, None
    complete = list(unbuffered) if contracts.contracts_enabled() else None
    unbuilt = 0
    for rep in options.library.oriented_options():
        survivors, considered = _buffered_survivors(unbuffered, rep, c_max)
        unbuilt += considered - len(survivors)
        if complete is None:
            for i in survivors:
                out.append(apply_repeater(unbuffered[i], rep, v, c_max))
        else:
            built = [apply_repeater(s, rep, v, c_max) for s in unbuffered]
            complete.extend(b for b in built if b is not None)
            out.extend(built[i] for i in survivors)
    return out, unbuilt, complete


def _buffered_survivors(
    parents: List[Solution], rep: Repeater, c_max: float
) -> Tuple[List[int], int]:
    """Predictive pruning of the candidates ``apply_repeater(p, rep)``.

    Returns the indices of the parents whose buffered candidate survives,
    ascending, and the number of candidates considered (parents whose
    domain holds ``c_b``).  Siblings share cap ``c_a``, domain ``[0,
    c_max]`` and ``arr`` slope ``r_ba``, and their ``diam`` is constant,
    so each is :func:`~repro.core.solution.buffered_summary`'s scalars
    plus parity.  They are swept in the MFS order ``(parity, cost, cap,
    q, uid)`` — the parent index stands in for the uid, since siblings
    are built in parent order — and a candidate is dropped under the
    full certificate against an earlier survivor: exact scalar ``<=`` and
    ``LEQ_FULL`` on both lines, classified by :func:`line_leq_status`
    exactly as ``leq_status`` classifies the built functions
    (docs/ALGORITHMS.md §12, §15).
    """
    flip = 1 if rep.is_inverting else 0
    entries = []
    for i, s in enumerate(parents):
        summary = buffered_summary(s, rep)
        if summary is not None:
            cost, q, arr_0, diam_b = summary
            entries.append((s.parity ^ flip, cost, q, i, arr_0, diam_b))
    entries.sort()  # the index is unique: arr_0/diam_b are never compared
    slope = rep.r_ba
    killers: List[tuple] = []
    survivors: List[int] = []
    for entry in entries:
        parity, cost, q, i, arr_0, diam_b = entry
        # any earlier survivor may certify the drop, so the scan order is
        # free: the latest survivors are the nearest in (cost, q) and the
        # likeliest killers, and the constant diam is the more selective
        # line — the same decisions with about 2.5x fewer classifications
        # on the paper-protocol 5-pin nets
        for k_parity, k_cost, k_q, _, k_arr, k_diam in reversed(killers):
            # None is the identically -inf function, as in leq_status
            if (
                k_parity == parity
                and k_cost <= cost
                and k_q <= q
                and (k_diam is None or (
                    diam_b is not None
                    and line_leq_status(0.0, c_max, k_diam, 0.0, diam_b, 0.0)
                    == LEQ_FULL))
                and (k_arr is None or (
                    arr_0 is not None
                    and line_leq_status(0.0, c_max, k_arr, slope, arr_0, slope)
                    == LEQ_FULL))
            ):
                break
        else:
            killers.append(entry)
            survivors.append(i)
    survivors.sort()
    return survivors, len(entries)


def _root_set(
    tree: RoutingTree,
    tech: Technology,
    sets: Dict[int, List[Solution]],
    c_max: float,
    options: MSRIOptions,
    widths: Optional[Dict[int, float]] = None,
) -> List[RootSolution]:
    root = tree.root
    term = tree.node(root).terminal
    if term is None:
        raise RuntimeError("trees are rooted at a terminal")
    (child,) = tree.children(root)

    # (terminal, extra cost, placement) per root driver; each option
    # sizes the terminal once per solve, not once per candidate
    if options.driver_options is None:
        drivers = [(term, 0.0, None)]
    else:
        drivers = [
            (opt.applied_to(term), opt.cost, Placement(root, opt))
            for opt in options.driver_options
        ]
    candidates: List[RootSolution] = []
    for a in _augment_over_edge(tree, tech, child, sets[child], c_max, options, widths):
        for sized, cost, placement in drivers:
            rs = evaluate_at_root(
                a, root, sized, extra_cost=cost, trace_placement=placement
            )
            if rs is not None:
                candidates.append(rs)
    return _pareto_root(candidates)


def _pareto_root(candidates: List[RootSolution]) -> List[RootSolution]:
    """2-D (cost, ARD) minima, sorted by cost ascending.

    Costs within ``1e-9`` are one cost: sums of the same prices in another
    order can differ in the last bit (sized wires), and of two such
    solutions only the faster is kept.
    """
    ordered = sorted(candidates, key=lambda s: (s.cost, s.ard))
    out: List[RootSolution] = []
    best_ard = math.inf
    for s in ordered:
        if s.ard < best_ard - 1e-12:
            if out and s.cost <= out[-1].cost + 1e-9:
                out[-1] = s
            else:
                out.append(s)
            best_ard = s.ard
    if contracts.contracts_enabled():
        contracts.verify_root_front(out)
    return out


# -- helpers ---------------------------------------------------------------------


def _context_widths(
    tree: RoutingTree, context: Optional[EvalContext]
) -> Dict[int, float]:
    """Validate an evaluation context and extract its fixed edge widths.

    Shared by :func:`insert_repeaters` and
    :class:`~repro.core.msri_engine.IncrementalMSRI` so both reject the
    same context knobs for the same reasons.
    """
    widths: Dict[int, float] = {}
    if context is not None:
        if context.assignment:
            raise ValueError(
                "insert_repeaters derives the repeater assignment; "
                "context.assignment must be empty"
            )
        if context.include_companion_cap:
            raise ValueError(
                "insert_repeaters prices repeaters under the paper's "
                "decoupled model; include_companion_cap is not supported"
            )
        for idx, w in dict(context.wire_widths or {}).items():
            if not (0 <= idx < len(tree)) or tree.parent(idx) is None:
                raise ValueError(f"context.wire_widths[{idx}] does not name an edge")
            if w <= 0.0:
                raise ValueError(f"wire width factor must be positive, got {w}")
            widths[idx] = float(w)
    return widths


def _domain_bound(
    tree: RoutingTree,
    tech: Technology,
    options: MSRIOptions,
    widths: Optional[Dict[int, float]] = None,
) -> float:
    """Upper bound on any external capacitance seen during the DP."""
    widths = widths or {}
    wires = sum(
        tech.wire_capacitance(tree.edge_length(i)) * widths.get(i, 1.0)
        for i in range(len(tree))
    )
    pins = sum(t.capacitance for t in tree.terminals())
    if options.wire_library is not None:
        wires *= max(wc.width for wc in options.wire_library)
    extra = 0.0
    if options.library is not None:
        extra = max(max(r.c_a, r.c_b) for r in options.library)
    if options.driver_options is not None:
        extra = max(
            extra, max(opt.net_capacitance for opt in options.driver_options)
        )
    bound = wires + pins + extra + 1.0
    if options.quantize_bound:
        # next power of two: a step function of net size, so nets in the
        # same bucket share the domain bound (and hence cacheable fronts)
        bound = float(2.0 ** math.ceil(math.log2(bound)))
    return bound


def _make_pruner(options: MSRIOptions):
    """Compose the per-node pruning pipeline the DP runs at every vertex.

    MFS on the raw candidates (with the pair prescreen riding on the
    ``prefilter`` knob) → width cap / segment budget.  ``unbuilt`` counts
    candidates the predictive stages already certified dominated without
    building them; they are the only drops the prefilter counters see.
    Under ``REPRO_CHECK`` the pre-cap front is additionally cross-checked
    against a prescreen-free MFS pass over the *raw* candidates — the
    ``complete`` set when the caller skipped some: exact mode must be
    bit-identical (docs/PRUNING.md).
    """
    prescreen = options.prefilter
    if options.use_divide_and_conquer:
        base = lambda sols: mfs(  # noqa: E731
            sols, leaf_size=_MFS_LEAF_SIZE, prescreen=prescreen
        )
        baseline = lambda sols: mfs(  # noqa: E731
            sols, leaf_size=_MFS_LEAF_SIZE, prescreen=False
        )
    else:
        base = lambda sols: mfs_pairwise(sols, prescreen=prescreen)  # noqa: E731
        baseline = lambda sols: mfs_pairwise(sols, prescreen=False)  # noqa: E731
    checking = contracts.contracts_enabled()
    observing = obs.enabled()
    has_caps = (
        options.max_front_width is not None
        or options.max_pwl_segments is not None
    )

    def prune(
        raw: List[Solution],
        unbuilt: int = 0,
        complete: Optional[List[Solution]] = None,
    ) -> List[Solution]:
        if options.prefilter and observing:
            _OBS_PREFILTER_EXAMINED.add(len(raw) + unbuilt)
            _OBS_PREFILTER_DROPPED.add(unbuilt)
        front = base(raw)
        if checking:
            contracts.verify_pareto(front)
            if options.prefilter:
                contracts.verify_front_equivalence(
                    front,
                    baseline(raw if complete is None else complete),
                    context="MSRI prefilter",
                )
        if has_caps:
            front = _enforce_caps(front, options, observing)
        return front

    return prune


_SORT_KEY = lambda s: (s.parity, s.cost, s.cap, s.q, s.uid)  # noqa: E731


def _enforce_caps(
    front: List[Solution], options: MSRIOptions, observing: bool
) -> List[Solution]:
    """Apply the width cap and the PWL segment budget to a pruned front."""
    cap = options.max_front_width
    if cap is not None and len(front) > cap:
        if options.spec is not None:
            # exact certificate: min-over-domain of diam is a monotone
            # lower bound on any completion's ARD, so these solutions can
            # never meet the spec.  Never drop the whole front — an empty
            # set would silently turn "spec unachievable" into "no net".
            feasible = [
                s for s in front if min_diam_lower_bound(s) <= options.spec
            ]
            if feasible and len(feasible) < len(front):
                if observing:
                    _OBS_CAP_SPEC_DROPPED.add(len(front) - len(feasible))
                front = feasible
        if len(front) > cap:
            if options.lossy:
                ordered = sorted(front, key=_SORT_KEY)
                n = len(ordered)
                # deterministic thinning: keep `cap` evenly spaced
                # solutions including both extremes of the sorted front
                picks = sorted(
                    {int(i * (n - 1) / (cap - 1) + 0.5) for i in range(cap)}
                )
                if observing:
                    _OBS_CAP_LOSSY_DROPPED.add(n - len(picks))
                front = [ordered[i] for i in picks]
            elif observing:
                _OBS_CAP_EXCEEDED.add()
    budget = options.max_pwl_segments
    if budget is not None:
        front = _enforce_segment_budget(front, budget, options.lossy, observing)
    return front


def _enforce_segment_budget(
    front: List[Solution], budget: int, lossy: bool, observing: bool
) -> List[Solution]:
    out: List[Solution] = []
    for s in front:
        widest = max_segment_count((s.arr, s.diam))
        if widest <= budget:
            out.append(s)
            continue
        if not lossy:
            if observing:
                _OBS_SEG_OVER_BUDGET.add()
            out.append(s)
            continue
        arr = s.arr if s.arr is None else s.arr.simplified(budget)
        diam = s.diam if s.diam is None else s.diam.simplified(budget)
        slim = replace(s, arr=arr, diam=diam, uid=s.uid)
        if observing:
            _OBS_SEG_DROPPED.add(
                widest - max_segment_count((slim.arr, slim.diam))
            )
        out.append(slim)
    return out
