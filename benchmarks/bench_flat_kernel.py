"""Batched flat-kernel evaluation vs per-net reference passes.

The array-flattened kernel (:mod:`repro.rctree.flat`) exists for exactly
one workload: scoring *thousands of nets per call* (topology search,
Monte-Carlo sweeps, campaign fan-out), where the per-net overhead of the
object-graph walk — node views, dict lookups, record allocation —
dominates.  This benchmark evaluates the same seeded corpus twice:

* reference: one :func:`repro.core.ard.ard` full pass per net;
* batched: one :func:`repro.rctree.flat.evaluate_batch` call, which
  compiles every net and runs the kernel over it.

Every ARD value and critical pair is asserted **bit-identical** between
the two before any time is compared — a fast-but-wrong kernel cannot
pass.  Wall-clocks are medians over ``--repeats`` runs to damp machine
noise; CI's ``flat-smoke`` job gates on ``--assert-speedup 3``.

Run directly::

    python benchmarks/bench_flat_kernel.py --assert-speedup 3

or via the benchmark suite (``pytest benchmarks/bench_flat_kernel.py``).
The committed numbers live in ``benchmarks/results/flat_kernel.txt``.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time

from repro.analysis import Table, save_text
from repro.core.ard import ard
from repro.netgen import paper_repeater_library, paper_technology, random_net
from repro.netgen.workloads import paper_net_spec
from repro.rctree.engine import EvalContext
from repro.rctree.flat import evaluate_batch

SPACING_CHOICES = (400.0, 800.0, 1600.0)


def build_corpus(n_nets: int, seed: int):
    """Seeded mixed-size nets with sparse random repeater assignments."""
    rng = random.Random(seed)
    options = paper_repeater_library().oriented_options()
    nets, contexts = [], []
    for i in range(n_nets):
        pins = 4 + (i % 24)
        spacing = SPACING_CHOICES[i % len(SPACING_CHOICES)]
        tree = random_net(seed + i, pins, paper_net_spec(), spacing=spacing)
        assignment = {
            idx: rng.choice(options)
            for idx in tree.insertion_indices()
            if rng.random() < 0.15
        }
        nets.append(tree)
        contexts.append(EvalContext(assignment=assignment or None))
    return nets, contexts


def _median_time(fn, repeats: int):
    """Median wall-clock of ``repeats`` runs; returns (seconds, last result)."""
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def run_comparison(n_nets: int = 400, seed: int = 0, repeats: int = 3):
    tech = paper_technology()
    nets, contexts = build_corpus(n_nets, seed)
    total_nodes = sum(len(t) for t in nets)

    t_reference, ref = _median_time(
        lambda: [
            ard(tree, tech, context=ctx) for tree, ctx in zip(nets, contexts)
        ],
        repeats,
    )
    t_batch, batch = _median_time(
        lambda: evaluate_batch(nets, tech, contexts=contexts), repeats
    )

    for k, (a, b) in enumerate(zip(ref, batch)):
        # exact comparison is the point: the kernel must be bit-identical
        if not (a.value == b.value):  # repro: noqa[R001]
            raise AssertionError(
                f"net {k}: reference {a.value!r}, batch {b.value!r}"
            )
        if (a.source, a.sink) != (b.source, b.sink):
            raise AssertionError(f"net {k}: critical pairs diverge")

    return {
        "nets": n_nets,
        "total_nodes": total_nodes,
        "repeats": repeats,
        "t_reference": t_reference,
        "t_batch": t_batch,
        "speedup": t_reference / t_batch,
        "nodes_per_s": total_nodes / t_batch,
    }


def render(report) -> str:
    table = Table(
        "batched flat kernel vs per-net reference ARD passes",
        ["metric", "value"],
    )
    table.add_row("nets per batch", report["nets"])
    table.add_row("total tree nodes", report["total_nodes"])
    table.add_row("timing repeats (median)", report["repeats"])
    table.add_row("per-net reference (s)", f"{report['t_reference']:.3f}")
    table.add_row("batch, compile + kernel (s)", f"{report['t_batch']:.3f}")
    table.add_row("speedup", f"{report['speedup']:.2f}x")
    table.add_row("batch throughput (nodes/s)", f"{report['nodes_per_s']:.0f}")
    table.add_note(
        "every ARD value and critical pair asserted bit-identical to the "
        "reference pass before any wall-clock is compared"
    )
    return table.render()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nets", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        help="fail unless batched evaluation, compile included, beats "
        "per-net reference passes by this factor (medians over --repeats "
        "runs)",
    )
    parser.add_argument(
        "--no-save", action="store_true", help="skip writing benchmarks/results"
    )
    args = parser.parse_args(argv)

    report = run_comparison(args.nets, args.seed, args.repeats)
    out = render(report)
    print(out)
    if not args.no_save:
        save_text("flat_kernel.txt", out)
    if args.assert_speedup is not None and (
        report["speedup"] < args.assert_speedup
    ):
        print(
            f"FAIL: speedup {report['speedup']:.2f}x below "
            f"required {args.assert_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    return 0


def test_flat_batch_speedup(benchmark):
    """Benchmark-suite entry: smaller corpus, same identity + speedup gate."""
    report = run_comparison(n_nets=150, repeats=5)
    assert report["speedup"] >= 3.0
    tech = paper_technology()
    nets, contexts = build_corpus(150, 0)
    benchmark.pedantic(
        evaluate_batch,
        args=(nets, tech),
        kwargs={"contexts": contexts},
        rounds=3,
        iterations=1,
    )


if __name__ == "__main__":
    sys.exit(main())
