"""Serving-layer latency/throughput benchmark with byte-identity gate.

Starts an in-process :class:`~repro.serve.server.TimingServer` on an
ephemeral loopback port and drives it with the load generator: N
concurrent client sessions, each streaming a seeded edit sequence and
reading the re-evaluated ARD after every edit.  Afterwards every session
is replayed serially on a local engine and the streamed responses are
compared **byte-for-byte** against the re-encoded frames — the benchmark
asserts zero mismatches before it reports a single latency number, so a
fast-but-wrong server cannot pass.

Reported: total edit round-trips, wall-clock, aggregate throughput and
the p50/p99/max per-edit latency across all sessions.

Run directly (CI's ``serve-smoke`` job)::

    python benchmarks/bench_serve.py --sessions 8 --edits 50

or via the benchmark suite (``pytest benchmarks/bench_serve.py``).
The committed numbers live in ``benchmarks/results/serve_latency.txt``.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import Table, save_text
from repro.serve.loadgen import run_load
from repro.serve.server import ServeConfig, start_in_thread


def run_serve_load(
    sessions: int = 8,
    edits: int = 50,
    seed: int = 0,
):
    """One measured load-generator pass against a fresh in-process server."""
    server, stop = start_in_thread(ServeConfig())
    try:
        report = run_load(
            "127.0.0.1",
            server.port,
            sessions=sessions,
            edits_per_session=edits,
            seed=seed,
        )
    finally:
        stop()
    if report.errors:
        raise AssertionError(f"load generator errors: {report.errors}")
    if report.mismatches:
        raise AssertionError(
            f"{report.mismatches} responses differ from the serial replay: "
            f"{report.mismatch_details}"
        )
    return report


def render(report) -> str:
    table = Table(
        "serve: concurrent sessions vs serial replay — latency and throughput",
        ["metric", "value"],
    )
    table.add_row("concurrent sessions", report.sessions)
    table.add_row("edit round-trips", report.edits_total)
    table.add_row("wall-clock (s)", f"{report.wall_s:.2f}")
    table.add_row("throughput (edits/s)", f"{report.throughput_eps:.0f}")
    table.add_row("edit latency p50 (ms)", f"{report.p50_ms:.2f}")
    table.add_row("edit latency p99 (ms)", f"{report.p99_ms:.2f}")
    table.add_row("edit latency max (ms)", f"{report.max_ms:.2f}")
    table.add_row("byte-identity mismatches", report.mismatches)
    table.add_note(
        "every streamed response byte-compared against a serial replay on a "
        "local engine (same frames, same encoder) before timing is reported"
    )
    return table.render()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, default=8)
    parser.add_argument("--edits", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--assert-p99-ms",
        type=float,
        default=None,
        help="fail if the p99 edit latency exceeds this many milliseconds",
    )
    parser.add_argument(
        "--no-save", action="store_true", help="skip writing benchmarks/results"
    )
    args = parser.parse_args(argv)

    report = run_serve_load(args.sessions, args.edits, args.seed)
    out = render(report)
    print(out)
    if not args.no_save:
        save_text("serve_latency.txt", out)
    if args.assert_p99_ms is not None and report.p99_ms > args.assert_p99_ms:
        print(
            f"FAIL: p99 edit latency {report.p99_ms:.2f}ms above required "
            f"{args.assert_p99_ms:.2f}ms",
            file=sys.stderr,
        )
        return 1
    return 0


def test_serve_latency(benchmark):
    """Benchmark-suite entry: smaller load, same byte-identity gate."""
    report = run_serve_load(sessions=4, edits=10)
    assert report.ok
    benchmark.pedantic(
        run_serve_load,
        kwargs={"sessions": 4, "edits": 10},
        rounds=1,
        iterations=1,
    )


if __name__ == "__main__":
    sys.exit(main())
