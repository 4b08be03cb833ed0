"""Memoized, incremental, and parallel MSRI solving.

:func:`repro.core.msri.insert_repeaters` recomputes every per-node
candidate front from scratch on every call.  Its hot consumers re-solve
nearly identical subproblems: topology search scores hundreds of candidate
trees that differ from the incumbent by one edge, campaigns sweep knobs
over the same nets, and the serve daemon's ``optimize`` op re-runs the full
DP per request.  :class:`IncrementalMSRI` makes those repeated invocations
cheap with three layers:

1. **Subtree-front memoization** — a content-hash keyed
   :class:`~repro.core.msri_cache.MSRICache` shared across engines; a hit
   installs a stored front and skips the entire subtree below it.
2. **Dirty-path re-solve** — the engine retains every per-node front of its
   last solve; an edit (:meth:`set_terminal`, :meth:`set_edge_length`,
   :meth:`set_wire_width`) invalidates only the fronts on the root path
   above the dirty vertex, the same trick
   :class:`~repro.rctree.incremental.IncrementalARD` plays on its linear
   records — everything off that path is reusable because the DP is a pure
   bottom-up fold.
3. **Parallel subtree solving** — with ``workers >= 2``, independent
   sibling subtrees under the topmost branch point are farmed over the
   campaign executor and merged deterministically (sorted by subtree root
   index; workers return packed fronts, never live solutions).

Every layer is **bit-identical** to the cold DP in all value-bearing
fields: under ``REPRO_CHECK=1`` each solve that reused anything is
differentially re-verified against a cold :func:`insert_repeaters` run
(:func:`repro.check.contracts.verify_msri_equivalence`).  The soundness
argument — why fronts are content-pure, why fresh ``uid`` tie-breaks
cannot change values, and the ``c_max`` keying caveat — lives in
docs/ALGORITHMS.md §13.

The cross-tree cache is bypassed under ``options.lossy`` (lossy thinning
is an explicit approximation regime; the cache stays an exact-mode
device), while dirty-path retention and parallel solving remain available.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

from ..check import contracts
from ..obs import core as obs
from ..rctree.engine import EvalContext
from ..rctree.topology import Node, NodeKind, RoutingTree
from ..tech.parameters import Technology
from ..tech.terminals import Terminal
from .msri import (
    MSRIOptions,
    MSRIResult,
    MSRIStats,
    _context_widths,
    _domain_bound,
    _make_pruner,
    _node_front,
    _root_set,
    insert_repeaters,
)
from .msri_cache import (
    MSRICache,
    front_key,
    options_fingerprint,
    pack_front,
    subtree_signatures,
    unpack_front,
)
from .solution import Solution

__all__ = ["IncrementalMSRI", "insert_repeaters_cached"]

#: Below this many to-be-computed vertices, process fan-out costs more
#: than it saves and :meth:`IncrementalMSRI.solve` stays serial.
PARALLEL_MIN_NODES = 64

_OBS_SOLVES = obs.Counter("msri.engine.solves")
_OBS_NODES_REUSED = obs.Counter("msri.engine.nodes_reused")
_OBS_NODES_COMPUTED = obs.Counter("msri.engine.nodes_computed")


def insert_repeaters_cached(
    tree: RoutingTree,
    tech: Technology,
    options: MSRIOptions,
    *,
    context: Optional[EvalContext] = None,
    cache: Optional[MSRICache] = None,
    workers: int = 0,
) -> MSRIResult:
    """One-shot MSRI through the subtree-front cache.

    Drop-in for :func:`~repro.core.msri.insert_repeaters` when a shared
    :class:`~repro.core.msri_cache.MSRICache` makes repeated solves cheap
    (topology-search scoring, campaign sweeps, serve requests).  The
    result is bit-identical to the cold DP in every value-bearing field.
    """
    engine = IncrementalMSRI(
        tree, tech, options, context=context, cache=cache, workers=workers
    )
    return engine.solve()


class IncrementalMSRI:
    """An MSRI solver that retains per-node fronts between solves.

    Construct once per net, call :meth:`solve`, then edit and re-solve:
    only the fronts on the root path above each edit recompute.  Pass a
    shared ``cache`` to also reuse fronts across engines and across trees
    (requires exact mode; lossy engines skip the global cache).  ``workers``
    enables process fan-out over independent sibling subtrees for large
    cold solves.

    The engine exposes the same result type as the one-shot DP;
    ``result.stats`` additionally reports ``cache_hits`` (fronts installed
    from the cross-tree cache) and ``nodes_reused`` (DP vertices skipped).
    """

    def __init__(
        self,
        tree: RoutingTree,
        tech: Technology,
        options: MSRIOptions,
        *,
        context: Optional[EvalContext] = None,
        cache: Optional[MSRICache] = None,
        workers: int = 0,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.tech = tech
        self.options = options
        self.cache = cache
        self.workers = workers
        self._tree = tree
        self._widths = _context_widths(tree, context)
        self._fronts: Dict[int, List[Solution]] = {}
        self._c_max: Optional[float] = None
        self._fingerprint = options_fingerprint(tech, options)
        # lossy thinning is an approximation regime; the cross-tree cache
        # stays exact-mode only (docs/ALGORITHMS.md §13)
        self._use_cache = cache is not None and not options.lossy
        self._result: Optional[MSRIResult] = None

    @property
    def tree(self) -> RoutingTree:
        return self._tree

    @property
    def last_result(self) -> Optional[MSRIResult]:
        return self._result

    # -- edits -----------------------------------------------------------------

    def set_terminal(self, v: int, terminal: Terminal) -> None:
        """Replace the terminal payload at vertex ``v``.

        Invalidates only the fronts on the root path at and above ``v``.
        Note the domain bound ``c_max`` sums every pin capacitance, so a
        capacitance change flushes *all* retained fronts unless
        ``options.quantize_bound`` keeps the bound in the same bucket.
        """
        tree = self._tree
        node = tree.node(v)
        if node.kind is not NodeKind.TERMINAL:
            raise ValueError(f"node {v} is not a terminal")
        nodes = list(tree.nodes)
        nodes[v] = Node(
            index=v, x=node.x, y=node.y, kind=NodeKind.TERMINAL, terminal=terminal
        )
        self._tree = RoutingTree(
            nodes,
            [tree.parent(i) for i in range(len(tree))],
            [tree.edge_length(i) for i in range(len(tree))],
        )
        self._dirty_up(v)

    def set_edge_length(self, v: int, length: float) -> None:
        """Change the length of the edge from ``v`` up to its parent.

        A front describes the subtree *before* the Fig. 10 augmentation
        over the parent edge, so the dirty vertex is the parent: ``v``'s
        own front stays valid.
        """
        tree = self._tree
        parent = tree.parent(v)
        if parent is None:
            raise ValueError(f"node {v} has no parent edge")
        if length < 0.0:
            raise ValueError(f"edge length must be non-negative, got {length}")
        lengths = [tree.edge_length(i) for i in range(len(tree))]
        lengths[v] = float(length)
        self._tree = RoutingTree(
            tree.nodes, [tree.parent(i) for i in range(len(tree))], lengths
        )
        self._dirty_up(parent)

    def set_wire_width(self, v: int, width: float) -> None:
        """Set the fixed width factor of the edge from ``v`` to its parent."""
        parent = self._tree.parent(v)
        if parent is None:
            raise ValueError(f"node {v} has no parent edge")
        if width <= 0.0:
            raise ValueError(f"wire width factor must be positive, got {width}")
        self._widths[v] = float(width)
        self._dirty_up(parent)

    def solve_tree(self, tree: RoutingTree) -> MSRIResult:
        """Solve a different tree, dropping retained fronts.

        The cross-tree cache still applies: subtrees the new tree shares
        with previously solved ones (by content signature) hit without
        recomputation — this is the topology-search scoring path.
        """
        self._tree = tree
        self._fronts.clear()
        self._widths = {
            i: w for i, w in sorted(self._widths.items()) if i < len(tree)
        }
        return self.solve()

    def _dirty_up(self, v: Optional[int]) -> None:
        while v is not None:
            self._fronts.pop(v, None)
            v = self._tree.parent(v)

    # -- solving ---------------------------------------------------------------

    def solve(self) -> MSRIResult:
        """Run the DP, reusing every front the last solve left valid."""
        t0 = time.perf_counter()  # repro: noqa[R009] wall-clock feeds stats only, never the result
        tree = self._tree
        options = self.options
        stats = MSRIStats()
        c_max = _domain_bound(tree, self.tech, options, self._widths)
        if self._c_max is not None and c_max != self._c_max:  # repro: noqa[R001] bound change detection must be exact — fronts embed these bits
            # the bound enters every retained solution's domain: a changed
            # bound invalidates everything (quantize_bound avoids this)
            self._fronts.clear()
        self._c_max = c_max

        sigs: Optional[List[bytes]] = None
        if self._use_cache:
            sigs = subtree_signatures(tree, self._widths)
        sizes = self._subtree_sizes(tree)

        # top-down discovery: collect the vertices that actually need
        # computing; do not descend below a retained front or a cache hit
        root = tree.root
        order: List[int] = []  # preorder over to-be-computed vertices
        reused_any = False
        stack = list(reversed(tree.children(root)))
        while stack:
            v = stack.pop()
            front = self._fronts.get(v)
            if front is not None:
                stats.record_reused(v, len(front), sizes[v], from_cache=False)
                reused_any = True
                continue
            if sigs is not None and self._cache_site(tree, v):
                records = self.cache.get(
                    front_key(sigs[v], self._fingerprint, c_max)
                )
                if records is not None:
                    self._fronts[v] = unpack_front(tree, v, records)
                    stats.record_reused(
                        v, len(records), sizes[v], from_cache=True
                    )
                    reused_any = True
                    continue
            order.append(v)
            stack.extend(reversed(tree.children(v)))

        observing = obs.enabled()
        with obs.trace(
            "msri.engine.solve", nodes=len(tree), compute=len(order)
        ) as span:
            remaining = order
            if self.workers >= 2 and len(order) >= PARALLEL_MIN_NODES:
                remaining = self._solve_subtrees_parallel(
                    tree, c_max, order, stats, sigs
                )
            self._compute_fronts(tree, c_max, remaining, stats, sigs)
            roots = _root_set(
                tree, self.tech, self._fronts, c_max, options, self._widths
            )
            if observing:
                _OBS_SOLVES.add()
                _OBS_NODES_COMPUTED.add(stats.nodes_processed)
                _OBS_NODES_REUSED.add(stats.nodes_reused)
                span.set(
                    computed=stats.nodes_processed,
                    reused=stats.nodes_reused,
                    cache_hits=stats.cache_hits,
                )
        stats.runtime_seconds = time.perf_counter() - t0  # repro: noqa[R009] stats only
        result = MSRIResult(solutions=tuple(roots), stats=stats, tree=tree)
        if contracts.contracts_enabled() and reused_any:
            # differential contract at every reuse site: the warm answer
            # must equal a cold DP bit for bit in all value-bearing fields
            ctx = (
                EvalContext(wire_widths=dict(self._widths))
                if self._widths
                else None
            )
            cold = insert_repeaters(tree, self.tech, options, context=ctx)
            contracts.verify_msri_equivalence(
                result, cold, context="IncrementalMSRI vs cold insert_repeaters"
            )
        self._result = result
        return result

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _subtree_sizes(tree: RoutingTree) -> List[int]:
        sizes = [1] * len(tree)
        for v in tree.dfs_postorder():
            for u in tree.children(v):
                sizes[v] += sizes[u]
        return sizes

    @staticmethod
    def _cache_site(tree: RoutingTree, v: int) -> bool:
        """Whether ``v``'s front is worth caching/looking up.

        Branch points and the root's child gate whole subtrees, so a hit
        there skips the most work; insertion-chain and leaf fronts are
        cheap to recompute relative to the cost of packing their traces,
        so they are neither stored nor looked up (keeping hit/miss
        counters meaningful).
        """
        if tree.node(v).kind is NodeKind.STEINER:
            return True
        parent = tree.parent(v)
        return parent is not None and parent == tree.root

    def _compute_fronts(
        self,
        tree: RoutingTree,
        c_max: float,
        order: List[int],
        stats: MSRIStats,
        sigs: Optional[List[bytes]],
    ) -> None:
        """Bottom-up front computation over ``order`` (a preorder slice)."""
        options = self.options
        prune = _make_pruner(options)
        checking = contracts.contracts_enabled()
        observing = obs.enabled()
        sets = self._fronts
        for v in reversed(order):
            generated, pruned = _node_front(
                tree, self.tech, v, sets, c_max, prune, options, self._widths
            )
            counts = stats.record(v, generated, pruned)
            if checking:
                contracts.verify_msri_node_conservation(
                    counts["node"], counts["generated"], counts["kept"]
                )
            if observing:
                obs.point("msri.node", **counts)
            sets[v] = pruned
            if sigs is not None and self._cache_site(tree, v):
                self.cache.put(
                    front_key(sigs[v], self._fingerprint, c_max),
                    pack_front(tree, v, pruned),
                )

    def _solve_subtrees_parallel(
        self,
        tree: RoutingTree,
        c_max: float,
        order: List[int],
        stats: MSRIStats,
        sigs: Optional[List[bytes]],
    ) -> List[int]:
        """Farm independent sibling subtrees out; return the serial rest.

        Jobs are the children of the topmost to-be-computed branch point
        whose subtrees are entirely uncomputed; each worker returns a
        *packed* front (no live solutions cross the process boundary) plus
        its stats aggregates, merged deterministically in ascending
        subtree-root order.  Falls back to fully serial when the tree
        offers no such split.
        """
        compute: Set[int] = set(order)
        roots = self._parallel_roots(tree, compute)
        sizes = self._subtree_sizes(tree)
        roots = [
            v
            for v in roots
            if sizes[v] >= 2
            and all(u in compute for u in self._descendants(tree, v))
        ]
        if len(roots) < 2:
            return order
        import functools

        from ..analysis.executor import Job, run_jobs

        bound = functools.partial(
            _solve_subtree_job,
            tree,
            self.tech,
            self.options,
            dict(self._widths),
            c_max,
        )
        jobs = [Job(key=(v,), args=(v,)) for v in sorted(roots)]
        outcomes = run_jobs(bound, jobs, workers=self.workers)
        by_root: Dict[int, Tuple] = {}
        for outcome in outcomes:
            if not outcome.ok:
                raise RuntimeError(
                    f"parallel MSRI subtree {outcome.key} failed: "
                    f"{outcome.failure}"
                )
            by_root[outcome.key[0]] = outcome.result
        done: Set[int] = set()
        for v in sorted(by_root):
            records, agg = by_root[v]
            self._fronts[v] = unpack_front(tree, v, records)
            self._merge_stats(stats, agg)
            done.update(self._descendants(tree, v))
            if sigs is not None and self._cache_site(tree, v):
                self.cache.put(
                    front_key(sigs[v], self._fingerprint, c_max),
                    records,
                )
        return [v for v in order if v not in done]

    @staticmethod
    def _parallel_roots(tree: RoutingTree, compute: Set[int]) -> List[int]:
        """Children of the topmost branch point on the to-compute path."""
        kids = tree.children(tree.root)
        if not kids:
            return []
        v = kids[0]
        while v in compute and len(tree.children(v)) == 1:
            v = tree.children(v)[0]
        if v not in compute:
            return []
        return [u for u in tree.children(v) if u in compute]

    @staticmethod
    def _descendants(tree: RoutingTree, v: int) -> List[int]:
        out = [v]
        stack = list(tree.children(v))
        while stack:
            x = stack.pop()
            out.append(x)
            stack.extend(tree.children(x))
        return out

    @staticmethod
    def _merge_stats(stats: MSRIStats, agg: Tuple) -> None:
        nodes, generated, kept, max_set, max_segs, set_sizes = agg
        stats.nodes_processed += nodes
        stats.solutions_generated += generated
        stats.solutions_after_pruning += kept
        stats.max_set_size = max(stats.max_set_size, max_set)
        stats.max_segments = max(stats.max_segments, max_segs)
        stats.set_sizes.update(set_sizes)


def _solve_subtree_job(
    tree: RoutingTree,
    tech: Technology,
    options: MSRIOptions,
    widths: Dict[int, float],
    c_max: float,
    sub_root: int,
) -> Tuple[Tuple, Tuple]:
    """Worker: solve one subtree bottom-up, return its packed root front.

    Module-level and bound via :func:`functools.partial` so the campaign
    executor can pickle it.  Returns ``(packed_front, stats_aggregate)``;
    live solutions never cross the process boundary (their traces are
    deep DAGs and their uids are process-local).
    """
    from .msri_cache import _subtree_preorder

    sets: Dict[int, List[Solution]] = {}
    stats = MSRIStats()
    prune = _make_pruner(options)
    checking = contracts.contracts_enabled()
    order = _subtree_preorder(tree, sub_root)
    for v in reversed(order):
        generated, pruned = _node_front(
            tree, tech, v, sets, c_max, prune, options, widths
        )
        counts = stats.record(v, generated, pruned)
        if checking:
            contracts.verify_msri_node_conservation(
                counts["node"], counts["generated"], counts["kept"]
            )
        sets[v] = pruned
        for u in tree.children(v):
            del sets[u]  # children fully consumed; free worker memory
    records = pack_front(tree, sub_root, sets[sub_root])
    return records, (
        stats.nodes_processed,
        stats.solutions_generated,
        stats.solutions_after_pruning,
        stats.max_set_size,
        stats.max_segments,
        stats.set_sizes,
    )
