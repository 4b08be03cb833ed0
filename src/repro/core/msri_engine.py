"""Memoized and incremental MSRI solving.

:func:`repro.core.msri.insert_repeaters` recomputes every per-node
candidate front from scratch on every call.  Its hot consumers re-solve
nearly identical subproblems: topology search scores hundreds of candidate
trees that differ from the incumbent by one edge, campaigns sweep knobs
over the same nets, and the serve daemon's ``optimize`` op re-runs the full
DP per request.  :func:`insert_repeaters_cached` and
:class:`IncrementalMSRI` make those repeated invocations cheap with two
layers:

1. **Subtree-front memoization** — a content-hash keyed
   :class:`~repro.core.msri_cache.MSRICache` shared across engines; a hit
   installs a stored front and skips the entire subtree below it, and a
   hit on the whole net's root suite skips the solve.
2. **Dirty-path re-solve** — the engine retains every per-node front of its
   last solve; an edit (:meth:`set_terminal`, :meth:`set_edge_length`,
   :meth:`set_wire_width`) invalidates only the fronts on the root path
   above the dirty vertex, the same trick
   :class:`~repro.rctree.flat.FlatARDEngine` plays on its linear records —
   everything off that path is reusable because the DP is a pure
   bottom-up fold.

Both run the cold DP's own driver (:func:`repro.core.msri._solve`), which
stops its walk at supplied fronts and cache hits, so all three entry
points share one per-vertex loop, its stats and its obs records.

Every layer is **bit-identical** to the cold DP in all value-bearing
fields: under ``REPRO_CHECK=1`` each solve that reused anything is
differentially re-verified against a cold :func:`insert_repeaters` run
(:func:`repro.check.contracts.verify_msri_equivalence`).  The soundness
argument — why fronts are content-pure, why fresh ``uid`` tie-breaks
cannot change values, and the ``c_max`` keying caveat — lives in
docs/ALGORITHMS.md §13.

The cross-tree cache is bypassed under ``options.lossy`` (lossy thinning
is an explicit approximation regime; the cache stays an exact-mode
device), while dirty-path retention remains available.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..check import contracts
from ..rctree.engine import EvalContext
from ..rctree.topology import Node, NodeKind, RoutingTree
from ..tech.parameters import Technology
from ..tech.terminals import Terminal
from .msri import (
    MSRIOptions,
    MSRIResult,
    _context_widths,
    _solve,
    insert_repeaters,
)
from .msri_cache import MSRICache
from .solution import Solution

__all__ = ["IncrementalMSRI", "insert_repeaters_cached"]


def insert_repeaters_cached(
    tree: RoutingTree,
    tech: Technology,
    options: MSRIOptions,
    *,
    context: Optional[EvalContext] = None,
    cache: Optional[MSRICache] = None,
) -> MSRIResult:
    """One-shot MSRI through the subtree-front cache.

    Drop-in for :func:`~repro.core.msri.insert_repeaters` when a shared
    :class:`~repro.core.msri_cache.MSRICache` makes repeated solves cheap
    (topology-search scoring, campaign sweeps, serve requests).  The
    result is bit-identical to the cold DP in every value-bearing field.
    """
    widths = _context_widths(tree, context)
    result, _ = _solve(tree, tech, options, widths, cache=cache)
    _verify_reuse(result, tech, options, widths, "insert_repeaters_cached")
    return result


def _verify_reuse(
    result: MSRIResult,
    tech: Technology,
    options: MSRIOptions,
    widths: Dict[int, float],
    who: str,
) -> None:
    """Under contracts, check a solve that reused fronts against a cold DP.

    The differential contract at every reuse site: the warm answer must
    equal a cold run bit for bit in all value-bearing fields.
    """
    if not (contracts.contracts_enabled() and result.stats.nodes_reused):
        return
    ctx = EvalContext(wire_widths=dict(widths)) if widths else None
    cold = insert_repeaters(result.tree, tech, options, context=ctx)
    contracts.verify_msri_equivalence(
        result, cold, context=f"{who} vs cold insert_repeaters"
    )


class IncrementalMSRI:
    """An MSRI solver that retains per-node fronts between solves.

    Construct once per net, call :meth:`solve`, then edit and re-solve:
    only the fronts on the root path above each edit recompute.  Pass a
    shared ``cache`` to also reuse fronts across engines and across trees
    (requires exact mode; lossy engines skip the global cache).

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
    ):
        self.tech = tech
        self.options = options
        self.cache = cache
        self._tree = tree
        self._widths = _context_widths(tree, context)
        self._fronts: Dict[int, List[Solution]] = {}
        self._c_max: Optional[float] = None
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
        """Run the DP, reusing every front the last solve left valid.

        The domain bound ``c_max`` enters every retained solution's
        domain, so a changed bound flushes all retained fronts
        (``quantize_bound`` avoids this).
        """
        result, self._c_max = _solve(
            self._tree,
            self.tech,
            self.options,
            self._widths,
            fronts=self._fronts,
            fronts_bound=self._c_max,
            cache=self.cache,
        )
        _verify_reuse(
            result, self.tech, self.options, self._widths, "IncrementalMSRI"
        )
        self._result = result
        return result
