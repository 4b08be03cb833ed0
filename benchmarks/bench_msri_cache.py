"""Warm-vs-cold MSRI on the topology-search inner loop.

``synthesize_topology(objective="msri")`` scores every edge-exchange
candidate by the minimum post-insertion ARD, which makes the MSRI DP the
inner loop of the search.  This bench reproduces that loop directly —
enumerate the single-edge-exchange neighbours of the rectilinear MST,
steinerize each, run the repeater-insertion DP on each — and measures
what :class:`repro.core.msri_cache.MSRICache` buys:

* **cold** — ``insert_repeaters`` per candidate, no reuse (what the
  search paid before the cache existed);
* **prime** — first cached sweep over the same candidates with one
  shared :class:`~repro.core.msri_cache.MSRICache`; hits here are
  *cross-candidate* (sibling trees differing by one spanning edge share
  untouched subtrees; ``quantize_bound=True`` aligns their ``c_max``);
* **warm** — second cached sweep; every tree's root suite is
  resident, so the DP re-derives nothing (``nodes computed = 0``) and
  the per-candidate cost collapses to signature hashing plus one
  root-suite unpack.

Every warm result is checked for value-identity (cost/ARD/assignment of
the full root Pareto suite) against the cold run — the cache is a
memoization, not an approximation (docs/ALGORITHMS.md §13).

Run directly (writes ``benchmarks/results/msri_cache.txt``)::

    python benchmarks/bench_msri_cache.py

CI runs the smoke variant::

    python benchmarks/bench_msri_cache.py --sizes 8 --assert-speedup

Note: under ``REPRO_CHECK=1`` every cached solve re-runs the cold DP as
a differential contract, so the warm timings are meaningless — the bench
then reports but does not assert the speedup.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis import Table, save_text
from repro.check import contracts
from repro.core import MSRICache, insert_repeaters, insert_repeaters_cached
from repro.netgen import (
    paper_net_spec,
    paper_technology,
    random_points,
    repeater_insertion_options,
)
from repro.steiner import rectilinear_mst, tree_from_terminal_edges
from repro.steiner.topology_search import _canonical_edges, _component
from repro.tech import Terminal


def make_terms(seed, n):
    spec = paper_net_spec()
    return [
        Terminal(
            f"p{i}",
            x,
            y,
            capacitance=spec.capacitance,
            resistance=spec.resistance,
            intrinsic_delay=spec.intrinsic_delay,
        )
        for i, (x, y) in enumerate(random_points(seed, n))
    ]


def edge_exchange_candidates(n, edges, limit):
    """The MST plus its single-edge-exchange neighbours, canonicalized.

    This is exactly the candidate set one round of the
    ``synthesize_topology`` edge scan scores.
    """
    seen = {_canonical_edges(edges)}
    candidates = list(seen)
    for k, removed in enumerate(edges):
        remaining = edges[:k] + edges[k + 1:]
        side_a = _component(n, remaining, removed[0])
        for i in sorted(side_a):
            for j in range(n):
                if j in side_a or (i, j) == removed or (j, i) == removed:
                    continue
                key = _canonical_edges(remaining + [(i, j)])
                if key not in seen:
                    seen.add(key)
                    candidates.append(key)
                if len(candidates) >= limit:
                    return candidates
    return candidates


def root_suite(result):
    """Value view of the root Pareto suite (uid-free, comparable)."""
    return [(s.cost, s.ard, s.assignment()) for s in result.solutions]


def run_sweep(pins, seed, limit, repeats):
    tech = paper_technology()
    terms = make_terms(seed, pins)
    mst = list(rectilinear_mst([(t.x, t.y) for t in terms]))
    candidates = edge_exchange_candidates(len(terms), mst, limit)
    trees = [tree_from_terminal_edges(terms, c) for c in candidates]
    # quantize_bound aligns c_max across sibling candidate trees so the
    # prime sweep can hit cross-candidate (docs/ALGORITHMS.md §13)
    opts = repeater_insertion_options(quantize_bound=True)

    t_cold = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        cold = [insert_repeaters(t, tech, opts) for t in trees]
        dt = time.perf_counter() - t0
        t_cold = dt if t_cold is None else min(t_cold, dt)

    cache = MSRICache()
    t0 = time.perf_counter()
    primed = [
        insert_repeaters_cached(t, tech, opts, cache=cache) for t in trees
    ]
    t_prime = time.perf_counter() - t0
    prime_hits, prime_misses = cache.hits, cache.misses

    t_warm = None
    warm = primed
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        warm = [
            insert_repeaters_cached(t, tech, opts, cache=cache) for t in trees
        ]
        dt = time.perf_counter() - t0
        t_warm = dt if t_warm is None else min(t_warm, dt)

    identical = all(
        root_suite(w) == root_suite(c) and root_suite(p) == root_suite(c)
        for w, p, c in zip(warm, primed, cold)
    )
    warm_nodes = sum(w.stats.nodes_processed for w in warm)
    return {
        "pins": pins,
        "candidates": len(candidates),
        "t_cold": t_cold,
        "t_prime": t_prime,
        "t_warm": t_warm,
        "speedup": t_cold / t_warm,
        "prime_hit_rate": prime_hits / max(1, prime_hits + prime_misses),
        "warm_nodes": warm_nodes,
        "identical": identical,
    }


def render(rows):
    table = Table(
        "MSRI subtree-front cache on the topology-search inner loop "
        "(edge-exchange candidate sweeps)",
        [
            "pins",
            "cands",
            "cold (s)",
            "prime (s)",
            "warm (s)",
            "speedup",
            "prime hit%",
            "warm nodes",
            "identical",
        ],
    )
    for r in rows:
        table.add_row(
            r["pins"],
            r["candidates"],
            f"{r['t_cold']:.3f}",
            f"{r['t_prime']:.3f}",
            f"{r['t_warm']:.3f}",
            f"{r['speedup']:.1f}x",
            f"{100 * r['prime_hit_rate']:.0f}",
            r["warm_nodes"],
            "yes" if r["identical"] else "NO",
        )
    table.add_note(
        "cold: insert_repeaters per candidate, no reuse; prime: first "
        "sweep through one shared MSRICache (hits are cross-candidate "
        "subtree reuse); warm: second sweep, fully resident."
    )
    table.add_note(
        "speedup = cold/warm; warm nodes = DP nodes actually recomputed "
        "across the warm sweep (0 = all fronts served from cache); "
        "identical = warm and prime root suites value-match cold."
    )
    return table.render()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 10, 12])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--candidates",
        type=int,
        default=24,
        help="cap on edge-exchange candidates per net (MST included)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="time cold/warm sweeps this many times and keep the minimum",
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        nargs="?",
        const=3.0,
        default=None,
        help="fail unless every row's warm speedup meets this factor "
        "(default 3x when given without a value)",
    )
    parser.add_argument(
        "--no-save", action="store_true", help="skip writing benchmarks/results"
    )
    args = parser.parse_args(argv)

    rows = [
        run_sweep(pins, args.seed, args.candidates, args.repeats)
        for pins in sorted(args.sizes)
    ]
    out = render(rows)
    print(out)
    if not args.no_save:
        save_text("msri_cache.txt", out)

    status = 0
    for r in rows:
        if not r["identical"]:
            print(
                f"FAIL: pins={r['pins']}: cached sweep differs from the "
                f"cold DP (memoization must be value-identical)",
                file=sys.stderr,
            )
            status = 1
        if r["warm_nodes"] != 0:
            print(
                f"FAIL: pins={r['pins']}: warm sweep recomputed "
                f"{r['warm_nodes']} DP nodes (expected full residency)",
                file=sys.stderr,
            )
            status = 1
    if args.assert_speedup is not None:
        if contracts.contracts_enabled():
            print(
                "NOTE: REPRO_CHECK is on — cached solves re-run the cold "
                "DP as a differential contract, so the speedup assertion "
                "is skipped.",
                file=sys.stderr,
            )
        else:
            for r in rows:
                if r["speedup"] < args.assert_speedup:
                    print(
                        f"FAIL: pins={r['pins']}: warm speedup "
                        f"{r['speedup']:.2f}x < {args.assert_speedup}x",
                        file=sys.stderr,
                    )
                    status = 1
    return status


def test_msri_cache_bench():
    """Suite entry: one small sweep, identity + residency assertions."""
    r = run_sweep(pins=7, seed=0, limit=8, repeats=1)
    assert r["identical"], "cached sweeps must value-match the cold DP"
    assert r["warm_nodes"] == 0
    assert r["prime_hit_rate"] > 0.0  # sibling candidates share subtrees


if __name__ == "__main__":
    sys.exit(main())
