"""Greedy iterative repeater insertion — an ablation baseline.

Repeatedly inserts the single (position, oriented repeater) choice that most
reduces the current ARD, until no insertion helps (or a cost budget runs
out).  Candidate trials run on a persistent
:class:`~repro.rctree.flat.FlatARDEngine` by default, so one trial costs
one dirty-path re-propagation (O(depth · branching)) instead of a full
O(n) pass — the outer loop drops from O(n²) per step to near-linear.
Pass any other :class:`~repro.rctree.engine.TimingEngine` with mutation ops
via ``engine`` to change the oracle (the benchmark uses a full-recompute
engine to measure exactly this speedup).

This is *not* from the paper; it quantifies what the paper's optimal DP
buys: the greedy baseline can terminate at a worse diameter or pay more
repeaters for the same diameter (see ``benchmarks/bench_greedy_gap.py``).
Its frontier is, by construction, never better than MSRI's at any cost —
the property the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..rctree.flat import FlatARDEngine
from ..rctree.topology import RoutingTree
from ..tech.buffers import Repeater, RepeaterLibrary
from ..tech.parameters import Technology

__all__ = ["GreedyStep", "greedy_insertion"]


@dataclass(frozen=True)
class GreedyStep:
    """State after one accepted greedy insertion."""

    cost: float
    ard: float
    assignment: Dict[int, Repeater]


def greedy_insertion(
    tree: RoutingTree,
    tech: Technology,
    library: RepeaterLibrary,
    *,
    max_cost: Optional[float] = None,
    max_steps: Optional[int] = None,
    engine=None,
) -> List[GreedyStep]:
    """Run the greedy loop; returns the trajectory including the start.

    ``steps[0]`` is the unbuffered net; each later entry adds exactly one
    repeater.  Stops when no single insertion improves the ARD, or when the
    cost/step budget is exhausted.

    ``engine`` must expose ``evaluate()`` and ``set_assignment(node, rep)``
    over ``tree`` with an initially empty assignment; the default is a
    fresh :class:`~repro.rctree.flat.FlatARDEngine`.
    """
    if engine is None:
        engine = FlatARDEngine(tree, tech)
    if not hasattr(engine, "set_assignment"):
        raise TypeError(
            f"greedy_insertion needs an engine with set_assignment(); "
            f"{type(engine).__name__} has none"
        )
    assignment: Dict[int, Repeater] = {}
    current = engine.evaluate(tree).value
    steps = [GreedyStep(0.0, current, dict(assignment))]
    options = library.oriented_options()
    insertion_points = tree.insertion_indices()

    while True:
        if max_steps is not None and len(steps) - 1 >= max_steps:
            break
        best: Optional[Tuple[float, int, Repeater]] = None
        cost_now = steps[-1].cost
        for idx in insertion_points:
            if idx in assignment:
                continue
            for rep in options:
                if max_cost is not None and cost_now + rep.cost > max_cost:
                    continue
                engine.set_assignment(idx, rep)
                value = engine.evaluate(tree).value
                engine.set_assignment(idx, None)
                if best is None or value < best[0]:
                    best = (value, idx, rep)
        if best is None or best[0] >= current - 1e-9:
            break
        value, idx, rep = best
        assignment[idx] = rep
        engine.set_assignment(idx, rep)
        current = value
        steps.append(GreedyStep(cost_now + rep.cost, current, dict(assignment)))
    return steps
