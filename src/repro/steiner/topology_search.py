"""ARD-driven topology synthesis for multisource nets.

The paper's conclusions point out that, given its results, "a multisource
version of the P-Tree timing-driven Steiner router is now possible" — the
ARD gives topology construction an objective, and the linear-time algorithm
makes each candidate cheap to score.  This module implements that direction
as a local search:

1. start from the rectilinear MST over the terminals;
2. repeatedly try *edge exchanges* — remove one spanning edge, reconnect
   the two components through a different terminal pair — scoring each
   candidate by ``ARD + wirelength_weight * WL`` on the steinerized
   topology (one O(n) ARD evaluation per candidate);
3. take the steepest improving move until a local optimum (or an iteration
   cap).

This is a pragmatic stand-in for a full P-Tree-style enumeration, in the
same spirit as the repository's other topology substitution (DESIGN.md §5):
it exercises the ARD objective end to end and measurably beats
wirelength-only topologies on diameter (see
``benchmarks/bench_topology_synthesis.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

from ..rctree.builder import TreeBuilder
from ..rctree.engine import TimingEngine
from ..rctree.flat import FlatARDEngine
from ..rctree.topology import RoutingTree
from ..tech.parameters import Technology
from ..tech.terminals import Terminal
from .mst import rectilinear_mst
from .steinerize import steinerize

__all__ = ["SynthesisResult", "synthesize_topology", "tree_from_terminal_edges"]

Edge = Tuple[int, int]


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of an ARD-driven topology search.

    ``evaluations`` counts oracle calls actually made; ``memo_hits`` counts
    candidate scorings answered from the canonical edge-set memo (the same
    terminal pair reappears across edge-scan rounds, and the post-move
    re-score is always a hit).
    """

    tree: RoutingTree
    terminal_edges: Tuple[Edge, ...]
    ard: float
    wirelength: float
    score: float
    iterations: int
    history: Tuple[float, ...]  # best score after each accepted move
    evaluations: int = 0
    memo_hits: int = 0


def tree_from_terminal_edges(
    terminals: Sequence[Terminal],
    edges: Sequence[Edge],
    *,
    root: int = 0,
) -> RoutingTree:
    """Steinerize a terminal-level spanning tree and build the routing tree."""
    points = [(t.x, t.y) for t in terminals]
    topo = steinerize(points, list(edges))
    builder = TreeBuilder()
    handles = []
    for i, (x, y) in enumerate(topo.points):
        if i < len(terminals):
            handles.append(builder.add_terminal(terminals[i]))
        else:
            handles.append(builder.add_steiner(x, y))
    for a, b in topo.edges:
        builder.connect(handles[a], handles[b])
    return builder.build(root=handles[root])


def _canonical_edges(edge_list: Sequence[Edge]) -> Tuple[Edge, ...]:
    """The canonical form of a terminal spanning tree: each edge as
    ``(min, max)``, the list sorted.

    Two candidate lists describing the same edge *set* reduce to the same
    tuple, which serves both as the score-memo key and as the edge order
    actually steinerized — :func:`steinerize`'s realization can depend on
    input order, so scoring the canonical form and building anything else
    would let a memo hit report a score the built tree doesn't have.
    """
    return tuple(
        sorted((a, b) if a <= b else (b, a) for a, b in edge_list)
    )


def synthesize_topology(
    terminals: Sequence[Terminal],
    tech: Technology,
    *,
    wirelength_weight: float = 0.0,
    max_iterations: int = 50,
    root: int = 0,
    engine_factory: Optional[Callable[[RoutingTree], TimingEngine]] = None,
    objective: str = "ard",
    msri_options=None,
    msri_cache=None,
) -> SynthesisResult:
    """Search terminal spanning trees for low ARD (plus optional WL term).

    ``wirelength_weight`` (ps per µm) trades routing resources against
    diameter: 0 optimizes diameter alone; large values recover the MST.

    ``engine_factory`` builds the timing oracle scoring each candidate
    topology (every candidate is a *different* tree, so the oracle is
    rebuilt per candidate).  The default is
    :class:`~repro.rctree.flat.FlatARDEngine`, whose single kernel sweep
    skips the Eq. 2 pass and the per-node scalar table that a full
    ``ard()`` would also materialize.

    ``objective="msri"`` scores each candidate by the *optimized* net
    instead of the bare topology: the minimum achievable ARD after optimal
    repeater insertion (``msri_options``, a
    :class:`~repro.core.msri.MSRIOptions`, is required).  Candidates run
    through :func:`~repro.core.msri_engine.insert_repeaters_cached`, so
    sibling candidates — trees differing from the incumbent by one edge —
    reuse each other's subtree fronts via ``msri_cache`` (a shared
    :class:`~repro.core.msri_cache.MSRICache`; one is created per search
    when omitted).  ``msri_options.quantize_bound=True`` is what makes
    cross-candidate hits possible — without it every candidate's ``c_max``
    differs and the cache only helps on exact re-scores.

    Candidate scorings are memoized on the canonical edge set, so the same
    reconnection pair reappearing across edge-scan rounds is never
    re-scored (``SynthesisResult.evaluations`` / ``memo_hits``).
    """
    if len(terminals) < 2:
        raise ValueError("topology synthesis needs at least two terminals")
    if wirelength_weight < 0.0:
        raise ValueError("wirelength_weight must be non-negative")
    if objective not in ("ard", "msri"):
        raise ValueError(
            f"unknown objective {objective!r}; expected 'ard' or 'msri'"
        )

    if objective == "msri":
        if engine_factory is not None:
            raise TypeError(
                "synthesize_topology: objective='msri' scores through the "
                "MSRI optimizer; engine_factory= does not apply"
            )
        if msri_options is None:
            raise ValueError(
                "objective='msri' requires msri_options (an MSRIOptions)"
            )
        from ..core.msri_cache import MSRICache
        from ..core.msri_engine import insert_repeaters_cached

        if msri_cache is None:
            msri_cache = MSRICache()

        def evaluate(tree: RoutingTree) -> float:
            result = insert_repeaters_cached(
                tree, tech, msri_options, cache=msri_cache
            )
            return result.min_ard().ard
    else:
        if msri_options is not None or msri_cache is not None:
            raise TypeError(
                "synthesize_topology: msri_options/msri_cache require "
                "objective='msri'"
            )
        if engine_factory is None:
            def engine_factory(tree: RoutingTree) -> TimingEngine:
                return FlatARDEngine(tree, tech)

        def evaluate(tree: RoutingTree) -> float:
            return engine_factory(tree).evaluate(tree).value

    points = [(t.x, t.y) for t in terminals]
    edges: List[Edge] = list(rectilinear_mst(points))

    memo: dict = {}
    counts = {"evaluations": 0, "memo_hits": 0}

    def score_of(edge_list: Sequence[Edge]) -> Tuple[float, float, float]:
        key = _canonical_edges(edge_list)
        hit = memo.get(key)
        if hit is not None:
            counts["memo_hits"] += 1
            return hit
        tree = tree_from_terminal_edges(terminals, key, root=root)
        value = evaluate(tree)
        wl = tree.total_wire_length()
        out = (value + wirelength_weight * wl, value, wl)
        memo[key] = out
        counts["evaluations"] += 1
        return out

    best_score, best_ard, best_wl = score_of(edges)
    history = [best_score]
    iterations = 0

    while iterations < max_iterations:
        iterations += 1
        move: Optional[Tuple[float, float, float, int, Edge]] = None
        for k, removed in enumerate(edges):
            remaining = edges[:k] + edges[k + 1:]
            side_a = _component(len(terminals), remaining, removed[0])
            for i in sorted(side_a):
                for j in range(len(terminals)):
                    if j in side_a:
                        continue
                    if (i, j) == removed or (j, i) == removed:
                        continue
                    candidate = remaining + [(i, j)]
                    score, value, wl = score_of(candidate)
                    if score < best_score - 1e-9 and (
                        move is None or score < move[0]
                    ):
                        move = (score, value, wl, k, (i, j))
        if move is None:
            break
        # the chosen move's scores were already computed during the scan —
        # carry them instead of re-scoring the edge list
        best_score, best_ard, best_wl, k, new_edge = move
        edges = edges[:k] + edges[k + 1:] + [new_edge]
        history.append(best_score)

    final_edges = _canonical_edges(edges)
    tree = tree_from_terminal_edges(terminals, final_edges, root=root)
    return SynthesisResult(
        tree=tree,
        terminal_edges=final_edges,
        ard=best_ard,
        wirelength=best_wl,
        score=best_score,
        iterations=iterations,
        history=tuple(history),
        evaluations=counts["evaluations"],
        memo_hits=counts["memo_hits"],
    )


def _component(n: int, edges: Sequence[Edge], start: int) -> Set[int]:
    """Terminal indices reachable from ``start`` using ``edges``."""
    adj: List[List[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen
