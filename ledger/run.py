"""Performance ledger: one workload per run, one JSON line of metrics.

Usage::

    python3 ledger/run.py --workload optimize --seed 3 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
median and 90th-percentile latency of one operation, and set-up time
(the median of at least nine set-ups, repeated until they add up to
two seconds).  ``--trace 1`` repeats the measurement with every layer
boundary wrapped (``ledger/layers.py``) and reports per-layer self time
per operation, work counts at the boundaries, the share of operation
time spent in named leaf layers, and the tracer's own cost.

``dp_loop``, ``search`` and ``campaign`` are containers: their self time
is whatever their wrapped children do not cover (unwrapped work and the
tracer's per-call cost included), so they are reported but not counted
as attributed.

Every time reported is scaled to a fixed host speed.  Shared hosts run
up to 1.6x slower for seconds to minutes at a time as other tenants come
and go (seen on a 2-vCPU Xeon KVM guest), which moved run medians by
more than any useful regression bound.  So a fixed pure-Python loop, the
``yardstick`` in ``workloads.py``, is timed just before each operation
and each set-up, and a time ``t`` next to a yardstick time ``y`` is
reported as ``t * REFERENCE_S / y``: what it would take on a host where
the loop takes ``REFERENCE_S``, about its time on that guest when the
host is quiet.  A change to the program moves ``t`` and not ``y``; a
change of host speed moves both.  Per-layer times in a ``--trace 1`` run
are scaled by the run's median yardstick.

Latency quantiles are taken over medians: each corpus item counts with
its median over the run's passes (a pass takes 0.2 to 2 seconds), then
the 50th and 90th percentiles are taken over items, so items of very
different cost cannot trade places from run to run.

Runs from the root of a source checkout and imports ``repro`` from its
``src`` directory; without one it exits with status 2.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: seconds the yardstick loop takes on the reference host
REFERENCE_S = 0.6e-3
#: set-ups repeat until they add up to two seconds, so a set-up of a few
#: milliseconds reports its median over many rather than over nine
SETUP_MIN_REPEATS = 9
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 1000

#: Layers whose self time is their own work, per operation, in ms.
LEAF_LAYERS = (
    "net_build", "c_max", "leaf", "augment", "join", "repeater", "prefilter",
    "mfs", "caps", "root", "select", "cache", "codec", "edit", "engine",
)
#: Wrapped containers; their self time is what their children leave over.
CONTAINER_LAYERS = ("dp_loop", "search", "campaign")


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def scaled(seconds: float, yard: float) -> float:
    """``seconds`` measured next to yardstick time ``yard``, at reference speed."""
    return seconds * REFERENCE_S / yard


def quantiles(samples):
    """(p50, p90) in reference seconds, as the module docstring describes."""
    groups = defaultdict(list)
    for item, seconds, yard in samples:
        groups[item].append(scaled(seconds, yard))
    typical = [statistics.median(group) for group in groups.values()]
    return statistics.median(typical), _percentile(typical, 0.9)


def end_to_end(samples, setup_s: float) -> dict:
    p50, p90 = quantiles(samples)
    return {
        "p50_ms": (p50 * 1e3, "ms"),
        "p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(samples, totals, call_overhead_s: float) -> dict:
    ops = len(samples)
    op_seconds = sum(seconds for _, seconds, _ in samples)
    # ms per operation at reference speed
    per_op_ms = scaled(1e3, statistics.median(y for _, _, y in samples)) / ops
    t = lambda key: totals.get(key, 0.0)  # noqa: E731
    out = {
        f"{layer}_ms": (t(layer + ".s") * per_op_ms, "ms/op")
        for layer in LEAF_LAYERS + CONTAINER_LAYERS
    }
    attributed = sum(t(layer + ".s") for layer in LEAF_LAYERS)
    out["attributed_share"] = (_ratio(attributed, op_seconds), "ratio")
    out["wrapped_calls"] = (t("calls") / ops, "1/op")
    out["tracer_overhead_ms"] = (t("calls") * call_overhead_s * per_op_ms, "ms/op")
    out["dp_solves"] = (t("dp.solves") / ops, "1/op")
    out["dp_nodes"] = (t("dp.nodes") / ops, "1/op")
    out["candidates_generated"] = (t("dp.generated") / ops, "1/op")
    out["candidates_kept"] = (t("dp.kept") / ops, "1/op")
    out["candidates_built"] = (t("candidates.built") / ops, "1/op")
    out["candidates_per_node"] = (_ratio(t("dp.generated"), t("dp.nodes")), "count")
    out["li_shi_ratio"] = (_ratio(t("dp.generated"), t("dp.bn_weighted_nodes")), "ratio")
    out["prefilter_drop_share"] = (
        1.0 - _ratio(t("prefilter.out"), t("prefilter.in")) if t("prefilter.in") else 0.0,
        "ratio",
    )
    out["mfs_keep_share"] = (_ratio(t("mfs.out"), t("mfs.in")), "ratio")
    out["dp_nodes_reused"] = (t("dp.reused") / ops, "1/op")
    out["cache_hits"] = (t("cache.hits") / ops, "1/op")
    out["cache_hit_share"] = (
        _ratio(t("cache.hits"), t("cache.hits") + t("cache.misses")), "ratio"
    )
    out["memo_hit_share"] = (
        _ratio(t("memo.hits"), t("memo.hits") + t("memo.scored")), "ratio"
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledger: no source tree at {SRC}", file=sys.stderr)
        return 2
    # contracts and observability change the code paths being timed
    os.environ["REPRO_CHECK"] = "0"
    os.environ["REPRO_OBS"] = "0"
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"ledger: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    from layers import Tracer, per_call_overhead
    from workloads import WORKLOADS, yardstick

    if args.workload not in WORKLOADS:
        print(f"ledger: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    try:
        setups = []
        while len(setups) < SETUP_MIN_REPEATS or (
            sum(setups) < SETUP_MIN_SECONDS and len(setups) < SETUP_MAX_REPEATS
        ):
            workload.close()  # the previous set-up's, outside the clock
            yard = yardstick()
            t0 = time.perf_counter()
            workload.setup()
            setups.append(scaled(time.perf_counter() - t0, yard))
        workload.prime()
        if tracer is not None:
            tracer.install()
        try:
            samples = workload.measure(args.seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
        failed = workload.verify()
    finally:
        workload.close()

    if tracer is None:
        metrics = end_to_end(samples, statistics.median(setups))
    else:
        metrics = per_layer(samples, tracer.totals(), per_call_overhead())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
