"""Dirty-path ARD vs per-probe full recompute on greedy insertion.

The greedy baseline probes every (insertion point, oriented repeater)
candidate per accepted step; historically each probe paid a full O(n)
Fig. 2 pass, making one step O(n²).  Greedy's default engine, the
persistent :class:`~repro.rctree.flat.FlatARDEngine`, answers each probe
with a dirty root-path re-propagation instead.  This benchmark runs the
*identical* greedy loop under both oracles on a 500-terminal net and
reports the wall-clock ratio.

Because the flat kernel ports the reference record combine step, the two
trajectories (every ARD value, cost, and assignment) must be
**bit-identical** — the benchmark asserts that before it asserts the
speedup, so a fast-but-wrong engine cannot pass.

Run directly (CI's ``incremental-smoke`` job)::

    python benchmarks/bench_incremental_ard.py --assert-speedup 2

or via the benchmark suite (``pytest benchmarks/bench_incremental_ard.py``).
The committed numbers live in ``benchmarks/results/incremental_ard.txt``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis import Table, save_text
from repro.baselines import greedy_insertion
from repro.core.ard import ard
from repro.netgen import paper_repeater_library, paper_technology, random_net
from repro.netgen.workloads import paper_net_spec
from repro.rctree.engine import EvalContext


class FullRecomputeEngine:
    """The dirty-path-free oracle: one fresh full Fig. 2 pass per probe."""

    def __init__(self, tree, tech):
        self._tree = tree
        self._tech = tech
        self._assignment = {}
        self.evaluations = 0

    def set_assignment(self, node, repeater):
        if repeater is None:
            self._assignment.pop(node, None)
        else:
            self._assignment[node] = repeater

    def evaluate(self, tree=None):
        self.evaluations += 1
        return ard(
            self._tree,
            self._tech,
            context=EvalContext(assignment=dict(self._assignment)),
        )


def run_comparison(terminals: int = 500, steps: int = 2, seed: int = 0):
    """Time both oracles through the same greedy run; returns a report dict."""
    tech = paper_technology()
    lib = paper_repeater_library()
    tree = random_net(seed, terminals, paper_net_spec(), spacing=800.0)

    t0 = time.perf_counter()
    fast = greedy_insertion(tree, tech, lib, max_steps=steps)
    t_incremental = time.perf_counter() - t0

    slow_engine = FullRecomputeEngine(tree, tech)
    t0 = time.perf_counter()
    slow = greedy_insertion(tree, tech, lib, max_steps=steps, engine=slow_engine)
    t_full = time.perf_counter() - t0

    if len(fast) != len(slow):
        raise AssertionError(
            f"trajectory lengths diverge: {len(fast)} vs {len(slow)}"
        )
    for k, (a, b) in enumerate(zip(fast, slow)):
        # exact comparison is the point: the dirty path must be bit-identical
        if a.ard != b.ard or a.cost != b.cost or a.assignment != b.assignment:  # repro: noqa[R001]
            raise AssertionError(
                f"step {k}: dirty path ({a.ard}, {a.cost}) != "
                f"full recompute ({b.ard}, {b.cost})"
            )

    return {
        "terminals": terminals,
        "nodes": len(tree),
        "insertion_points": len(tree.insertion_indices()),
        "steps": len(fast) - 1,
        "probes": slow_engine.evaluations,
        "t_incremental": t_incremental,
        "t_full": t_full,
        "speedup": t_full / t_incremental,
        "final_ard": fast[-1].ard,
    }


def render(report) -> str:
    table = Table(
        "dirty-path ARD (flat engine) vs full recompute — greedy insertion oracle",
        ["metric", "value"],
    )
    table.add_row("terminals", report["terminals"])
    table.add_row("tree nodes", report["nodes"])
    table.add_row("insertion points", report["insertion_points"])
    table.add_row("accepted greedy steps", report["steps"])
    table.add_row("oracle probes", report["probes"])
    table.add_row("full recompute wall-clock (s)", f"{report['t_full']:.2f}")
    table.add_row(
        "dirty-path wall-clock (s)", f"{report['t_incremental']:.2f}"
    )
    table.add_row("speedup", f"{report['speedup']:.1f}x")
    table.add_row("final ARD (ps)", f"{report['final_ard']:.1f}")
    table.add_note(
        "identical greedy trajectories asserted bit-for-bit before timing "
        "is compared"
    )
    return table.render()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--terminals", type=int, default=500)
    parser.add_argument("--steps", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        help="fail unless the dirty path beats full recompute by this factor",
    )
    parser.add_argument(
        "--no-save", action="store_true", help="skip writing benchmarks/results"
    )
    args = parser.parse_args(argv)

    report = run_comparison(args.terminals, args.steps, args.seed)
    out = render(report)
    print(out)
    if not args.no_save:
        save_text("incremental_ard.txt", out)
    if args.assert_speedup is not None and report["speedup"] < args.assert_speedup:
        print(
            f"FAIL: speedup {report['speedup']:.1f}x below required "
            f"{args.assert_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    return 0


def test_incremental_speedup(benchmark):
    """Benchmark-suite entry: smaller net, same bit-identity + speedup gate."""
    report = run_comparison(terminals=200, steps=1)
    assert report["speedup"] >= 2.0
    tech = paper_technology()
    lib = paper_repeater_library()
    tree = random_net(0, 200, paper_net_spec(), spacing=800.0)
    benchmark.pedantic(
        greedy_insertion,
        args=(tree, tech, lib),
        kwargs={"max_steps": 1},
        rounds=1,
        iterations=1,
    )


if __name__ == "__main__":
    sys.exit(main())
