"""Command-line interface: generate nets, compute ARDs, run the optimizer.

Installed as ``repro-msri`` (also runnable as ``python -m repro.cli``).

Subcommands
-----------
``generate``
    Build a seeded random net (the Sec. VI pipeline) and write it to JSON.
``info``
    Summarize a net file: size, wirelength, insertion points, bounding box.
``ard``
    Compute the augmented RC-diameter of a net (optionally with a saved
    repeater assignment) and report the critical source/sink pair.
``optimize``
    Run MSRI in repeater-insertion, driver-sizing, or combined mode; print
    the cost/ARD trade-off suite and optionally save the assignment that
    meets a timing spec at minimum cost.
``render``
    ASCII-render a net (optionally with a saved assignment), or write an
    SVG with ``--svg``.
``synthesize``
    ARD-driven topology synthesis: build a timing-optimized Steiner
    topology for a seeded point set (or one loaded from a points file) and
    write the resulting net.
``campaign``
    Run a sharded, resumable experiment sweep (Tables II/IV protocol).
``serve``
    Start the NDJSON session daemon over the flat timing engine
    (``docs/SERVING.md``), or with ``--self-test`` run the in-process
    concurrent load generator and assert every streamed response is
    byte-identical to a serial replay.
``lint``
    Run the repo-specific static analysis (rules R001-R006, see
    ``docs/STATIC_ANALYSIS.md``) over files or directories; also installed
    standalone as ``repro-lint``.
``trace``
    Run any other subcommand with observability enabled
    (``repro-msri trace [-o trace.jsonl] campaign ...``): spans, counters
    and per-node DP metrics are captured — worker processes included —
    exported as JSONL, and summarized as a text flame tree (optionally an
    SVG flame graph with ``--svg``).  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .analysis.render import render_tree
from .analysis.report import Table
from .core.ard import ard
from .rctree.engine import EvalContext
from .core.msri import MSRIOptions, insert_repeaters
from .io.serialize import (
    assignment_from_dict,
    assignment_to_dict,
    load_tree,
    save_tree,
)
from .netgen.random_nets import random_net
from .netgen.workloads import (
    PAPER_SPACING_UM,
    driver_sizing_options,
    paper_driver_options,
    paper_net_spec,
    paper_repeater_library,
    paper_technology,
    repeater_insertion_options,
)
from .tech.buffers import Repeater

__all__ = ["main", "build_parser"]


def _add_pruning_args(p: argparse.ArgumentParser) -> None:
    """The shared MSRI pruning knobs (docs/PRUNING.md) for a subcommand."""
    grp = p.add_argument_group("pruning (docs/PRUNING.md)")
    grp.add_argument(
        "--no-prefilter",
        dest="prefilter",
        action="store_false",
        help="disable the exact Shi-Li style dominance pre-filters "
        "(ablation; results are identical either way)",
    )
    grp.add_argument(
        "--max-front-width",
        type=int,
        help="cap the candidate-front width per prune site (exact unless "
        "--lossy: only spec-infeasible solutions are dropped)",
    )
    grp.add_argument(
        "--max-pwl-segments",
        type=int,
        help="per-function PWL segment budget (exact mode only counts "
        "offenders; --lossy simplifies to a conservative upper bound)",
    )
    grp.add_argument(
        "--lossy",
        action="store_true",
        help="allow the caps to change results (deterministic thinning / "
        "upper-bound simplification); requires a cap",
    )
    grp.add_argument(
        "--quantize-bound",
        action="store_true",
        help="round the DP's capacitance domain bound up to a power of two "
        "so similar nets share subtree-front cache entries "
        "(docs/ALGORITHMS.md section 13); self-consistent but low bits "
        "differ from unquantized runs",
    )


def _pruning_overrides(args, spec: Optional[float] = None) -> dict:
    """Collect non-default pruning knobs into a validate-ready dict."""
    ov: dict = {}
    if not args.prefilter:
        ov["prefilter"] = False
    if args.max_front_width is not None:
        ov["max_front_width"] = args.max_front_width
    if args.max_pwl_segments is not None:
        ov["max_pwl_segments"] = args.max_pwl_segments
    if args.lossy:
        ov["lossy"] = True
    if args.quantize_bound:
        ov["quantize_bound"] = True
    if spec is not None:
        ov["spec"] = spec
    return ov


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-msri",
        description="Multisource net timing optimization "
        "(Lillis & Cheng, DAC'97/TCAD'99 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a seeded random net")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--pins", type=int, default=10)
    g.add_argument(
        "--spacing",
        type=float,
        default=PAPER_SPACING_UM,
        help="max insertion-point spacing in um (0 disables insertion points)",
    )
    g.add_argument("--output", "-o", required=True, help="output net JSON path")

    i = sub.add_parser("info", help="summarize a net file")
    i.add_argument("net", help="net JSON path")

    a = sub.add_parser("ard", help="compute the augmented RC-diameter")
    a.add_argument("net", help="net JSON path")
    a.add_argument("--assignment", help="repeater assignment JSON path")

    o = sub.add_parser("optimize", help="run the MSRI optimizer")
    o.add_argument("net", help="net JSON path")
    o.add_argument(
        "--mode",
        choices=["repeater", "sizing", "both"],
        default="repeater",
    )
    o.add_argument(
        "--spec",
        type=float,
        help="timing spec (ps); report the min-cost solution meeting it",
    )
    o.add_argument(
        "--save-assignment",
        help="write the chosen solution's repeater assignment to this path "
        "(requires --spec)",
    )
    _add_pruning_args(o)

    r = sub.add_parser("render", help="render a net (ASCII or SVG)")
    r.add_argument("net", help="net JSON path")
    r.add_argument("--assignment", help="repeater assignment JSON path")
    r.add_argument("--svg", help="write an SVG to this path instead of ASCII")

    s = sub.add_parser(
        "synthesize", help="ARD-driven topology synthesis for a point set"
    )
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--pins", type=int, default=8)
    s.add_argument(
        "--points",
        help="optional points file (one 'x y' pair per line, um) instead of "
        "a seeded random set",
    )
    s.add_argument(
        "--wirelength-weight",
        type=float,
        default=0.0,
        help="ps per um of extra wire (0 = pure diameter)",
    )
    s.add_argument(
        "--spacing",
        type=float,
        default=PAPER_SPACING_UM,
        help="insertion-point spacing for the written net (0 disables)",
    )
    s.add_argument(
        "--objective",
        choices=["ard", "msri"],
        default="ard",
        help="candidate score: bare-tree diameter ('ard', default) or the "
        "minimum diameter after optimal repeater insertion ('msri', "
        "scored through the subtree-front cache)",
    )
    s.add_argument("--output", "-o", required=True, help="output net JSON path")
    s.add_argument(
        "--spec",
        type=float,
        help="also run the MSRI optimizer on the synthesized net and "
        "report the min-cost solution meeting this spec (ps)",
    )
    _add_pruning_args(s)

    lint = sub.add_parser(
        "lint", help="run repo-specific static analysis (rules R001-R010)"
    )
    lint.add_argument("paths", nargs="+", help="files or directories to lint")
    lint.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text"
    )
    lint.add_argument("--select", help="comma-separated rule ids (default: all)")
    lint.add_argument(
        "--baseline", help="suppress findings fingerprinted in this file"
    )
    lint.add_argument(
        "--write-baseline", help="adopt all current findings into this file"
    )
    lint.add_argument(
        "--changed-only",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="BASE",
        help="lint only files changed vs. the git ref BASE (default HEAD)",
    )

    c = sub.add_parser(
        "campaign", help="run a Table II-style sweep and save a JSON record"
    )
    c.add_argument("--seeds", type=int, default=3, help="seeds 0..N-1 per size")
    c.add_argument(
        "--sizes", type=int, nargs="+", default=[10, 20], help="net cardinalities"
    )
    c.add_argument("--spacing", type=float, default=PAPER_SPACING_UM)
    c.add_argument(
        "--spacings",
        type=float,
        nargs="+",
        help="sweep several insertion spacings (um) instead of --spacing",
    )
    c.add_argument("--label", default="cli")
    c.add_argument("--output", "-o", required=True, help="campaign JSON path")
    c.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = in-process serial; results are identical "
        "at any worker count)",
    )
    c.add_argument(
        "--timeout",
        type=float,
        help="per-job timeout in seconds (requires --workers >= 1)",
    )
    c.add_argument(
        "--max-retries",
        type=int,
        default=0,
        help="re-run a failed or timed-out job up to N times before "
        "recording a structured failure",
    )
    c.add_argument(
        "--checkpoint",
        help="JSONL checkpoint path (default: <output>.checkpoint.jsonl)",
    )
    c.add_argument(
        "--resume",
        action="store_true",
        help="replay the checkpoint and re-run only missing or failed jobs",
    )
    c.add_argument(
        "--msri-cache",
        action="store_true",
        help="route every job's optimizations through a worker-local "
        "subtree-front cache (bit-identical results; pair with "
        "--quantize-bound for cross-net hits)",
    )
    _add_pruning_args(c)

    v = sub.add_parser(
        "serve",
        help="run the NDJSON session server (timing-as-a-service; "
        "see docs/SERVING.md)",
    )
    v.add_argument("--host", default="127.0.0.1")
    v.add_argument(
        "--port",
        type=int,
        default=8642,
        help="listen port (0 = OS-assigned; default 8642)",
    )
    v.add_argument(
        "--timeout", type=float, default=30.0, help="per-request timeout (s)"
    )
    v.add_argument(
        "--ttl", type=float, default=300.0, help="idle-session eviction TTL (s)"
    )
    v.add_argument(
        "--max-frame-bytes",
        type=int,
        default=1 << 20,
        help="reject frames longer than this many bytes",
    )
    v.add_argument(
        "--self-test",
        action="store_true",
        help="start an ephemeral server, run the concurrent load generator "
        "against it, verify byte-identical responses, and exit",
    )
    v.add_argument(
        "--sessions", type=int, default=8, help="self-test concurrent sessions"
    )
    v.add_argument(
        "--edits", type=int, default=30, help="self-test edits per session"
    )
    v.add_argument("--seed", type=int, default=0, help="self-test stream seed")

    t = sub.add_parser(
        "trace",
        help="run another subcommand with observability enabled "
        "(spans + DP metrics), export JSONL, print a flame summary",
    )
    t.add_argument(
        "--trace-output",
        "-o",
        dest="trace_output",
        default="trace.jsonl",
        help="JSONL trace path (default: trace.jsonl)",
    )
    t.add_argument(
        "--svg", dest="trace_svg", help="also write an SVG flame graph here"
    )
    t.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        help="the traced subcommand and its arguments, e.g. "
        "'campaign --seeds 2 --sizes 6 -o camp.json'",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "info": _cmd_info,
        "ard": _cmd_ard,
        "optimize": _cmd_optimize,
        "render": _cmd_render,
        "synthesize": _cmd_synthesize,
        "campaign": _cmd_campaign,
        "serve": _cmd_serve,
        "lint": _cmd_lint,
        "trace": _cmd_trace,
    }[args.command]
    return handler(args)


def _cmd_generate(args) -> int:
    spacing = None if args.spacing == 0 else args.spacing
    tree = random_net(args.seed, args.pins, paper_net_spec(), spacing=spacing)
    save_tree(tree, args.output)
    print(
        f"wrote {args.output}: {len(tree)} nodes, "
        f"{len(tree.terminal_indices())} terminals, "
        f"{len(tree.insertion_indices())} insertion points, "
        f"{tree.total_wire_length():.0f} um wire"
    )
    return 0


def _cmd_info(args) -> int:
    tree = load_tree(args.net)
    min_x, min_y, max_x, max_y = tree.bounding_box()
    t = Table(f"net: {args.net}", ["property", "value"])
    t.add_row("nodes", len(tree))
    t.add_row("terminals", len(tree.terminal_indices()))
    t.add_row("steiner points", len(tree.steiner_indices()))
    t.add_row("insertion points", len(tree.insertion_indices()))
    t.add_row("wirelength (um)", tree.total_wire_length())
    t.add_row("bounding box (um)", f"({min_x:.0f},{min_y:.0f})-({max_x:.0f},{max_y:.0f})")
    t.add_row("root terminal", tree.node(tree.root).terminal.name)
    print(t)
    return 0


def _load_assignment(path: Optional[str]):
    if path is None:
        return {}
    with open(path) as fh:
        return assignment_from_dict(json.load(fh))


def _cmd_ard(args) -> int:
    tree = load_tree(args.net)
    assignment = _load_assignment(args.assignment)
    context = EvalContext(assignment=assignment)
    result = ard(tree, paper_technology(), context=context)
    if not result.is_finite:
        print("net has no source/sink pair; ARD is undefined")
        return 1
    src = tree.node(result.source).terminal.name
    snk = tree.node(result.sink).terminal.name
    print(f"ARD = {result.value:.1f} ps (critical pair: {src} -> {snk})")
    return 0


def _cmd_optimize(args) -> int:
    tree = load_tree(args.net)
    tech = paper_technology()
    overrides = _pruning_overrides(args, spec=args.spec)
    if args.mode == "repeater":
        options = repeater_insertion_options(**overrides)
    elif args.mode == "sizing":
        options = driver_sizing_options(**overrides)
    else:
        options = MSRIOptions(
            library=paper_repeater_library(),
            driver_options=paper_driver_options(),
            **overrides,
        )
    result = insert_repeaters(tree, tech, options)

    t = Table(
        f"cost / ARD trade-off ({args.mode} mode, "
        f"{result.stats.runtime_seconds:.2f}s)",
        ["cost (1X eq.)", "ARD (ps)", "repeaters"],
    )
    for s in result.solutions:
        t.add_row(s.cost, s.ard, s.repeater_count())
    print(t)

    if args.spec is not None:
        chosen = result.min_cost_meeting(args.spec)
        if chosen is None:
            print(f"\nspec {args.spec} ps is not achievable "
                  f"(best ARD: {result.min_ard().ard:.1f} ps)")
            return 1
        print(
            f"\nmin-cost solution meeting {args.spec} ps: "
            f"cost {chosen.cost:.1f}, ARD {chosen.ard:.1f} ps, "
            f"{chosen.repeater_count()} repeaters"
        )
        reps = {
            k: v
            for k, v in chosen.assignment().items()
            if isinstance(v, Repeater)
        }
        if args.save_assignment:
            with open(args.save_assignment, "w") as fh:
                json.dump(assignment_to_dict(reps), fh, indent=2)
            print(f"assignment written to {args.save_assignment}")
    return 0


def _cmd_render(args) -> int:
    tree = load_tree(args.net)
    assignment = _load_assignment(args.assignment)
    if args.svg:
        from .analysis.svg import save_svg

        save_svg(tree, args.svg, assignment, title=args.net)
        print(f"svg written to {args.svg}")
        return 0
    print(render_tree(tree, assignment))
    return 0


def _read_points(path: str):
    points = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'x y', got {line!r}")
            points.append((float(parts[0]), float(parts[1])))
    if len(points) < 2:
        raise ValueError(f"{path}: need at least two points")
    return points


def _cmd_synthesize(args) -> int:
    from .netgen.random_nets import random_points
    from .steiner.insertion_points import add_insertion_points
    from .steiner.topology_search import synthesize_topology
    from .tech.terminals import Terminal

    if args.points:
        points = _read_points(args.points)
    else:
        points = random_points(args.seed, args.pins)
    spec = paper_net_spec()
    terminals = [
        Terminal(
            f"p{i}",
            x,
            y,
            capacitance=spec.capacitance,
            resistance=spec.resistance,
            intrinsic_delay=spec.intrinsic_delay,
        )
        for i, (x, y) in enumerate(points)
    ]
    if args.objective == "msri":
        # score candidates by the optimized net; quantize_bound makes the
        # shared cache hit across the sibling candidate trees
        msri_overrides = dict(_pruning_overrides(args))
        msri_overrides.setdefault("quantize_bound", True)
        result = synthesize_topology(
            terminals,
            paper_technology(),
            wirelength_weight=args.wirelength_weight,
            objective="msri",
            msri_options=repeater_insertion_options(**msri_overrides),
        )
    else:
        result = synthesize_topology(
            terminals,
            paper_technology(),
            wirelength_weight=args.wirelength_weight,
        )
    tree = result.tree
    if args.spacing:
        tree = add_insertion_points(tree, args.spacing)
    save_tree(tree, args.output)
    print(
        f"synthesized topology: diameter {result.ard:.0f} ps, wirelength "
        f"{result.wirelength:.0f} um ({result.iterations} iterations, "
        f"{result.evaluations} scored, {result.memo_hits} memo hits); "
        f"wrote {args.output}"
    )
    overrides = _pruning_overrides(args, spec=args.spec)
    if overrides or args.spec is not None:
        opt = insert_repeaters(
            tree, paper_technology(), repeater_insertion_options(**overrides)
        )
        t = Table(
            f"cost / ARD trade-off on the synthesized net "
            f"({opt.stats.runtime_seconds:.2f}s)",
            ["cost (1X eq.)", "ARD (ps)", "repeaters"],
        )
        for s in opt.solutions:
            t.add_row(s.cost, s.ard, s.repeater_count())
        print(t)
        if args.spec is not None:
            chosen = opt.min_cost_meeting(args.spec)
            if chosen is None:
                print(
                    f"spec {args.spec} ps is not achievable "
                    f"(best ARD: {opt.min_ard().ard:.1f} ps)"
                )
                return 1
            print(
                f"min-cost solution meeting {args.spec} ps: "
                f"cost {chosen.cost:.1f}, ARD {chosen.ard:.1f} ps, "
                f"{chosen.repeater_count()} repeaters"
            )
    return 0


def _cmd_lint(args) -> int:
    from .check.cli import run_lint

    return run_lint(
        args.paths,
        fmt=args.format,
        select=args.select,
        baseline=args.baseline,
        write_baseline_to=args.write_baseline,
        changed_only=args.changed_only,
    )


def _cmd_trace(args) -> int:
    import os

    from .analysis.render import render_flame_svg, render_trace_summary
    from .obs import core as obs
    from .obs.export import export_jsonl

    rest = list(args.rest)
    if rest and rest[0] == "--":  # argparse.REMAINDER keeps a leading --
        rest = rest[1:]
    if not rest:
        print("trace: missing the subcommand to run", file=sys.stderr)
        return 2
    if rest[0] == "trace":
        print("trace: cannot nest trace inside trace", file=sys.stderr)
        return 2

    # set the env var (inherited by campaign worker processes) and flip the
    # in-process flag for code that already imported the obs module
    prev_env = os.environ.get("REPRO_OBS")
    os.environ["REPRO_OBS"] = "1"
    obs.set_enabled(True)
    obs.reset()
    try:
        status = main(rest)
    finally:
        snap = obs.snapshot(reset=True)
        if prev_env is None:
            os.environ.pop("REPRO_OBS", None)
        else:
            os.environ["REPRO_OBS"] = prev_env
        obs.set_enabled(None)
        export_jsonl(args.trace_output, snap)
        print(f"\ntrace written to {args.trace_output}")
        if args.trace_svg:
            render_flame_svg(snap, args.trace_svg)
            print(f"flame graph written to {args.trace_svg}")
        print(render_trace_summary(snap))
    return status


def _cmd_campaign(args) -> int:
    from .analysis.campaign import CampaignConfig, run_campaign

    config = CampaignConfig(
        seeds=tuple(range(args.seeds)),
        sizes=tuple(args.sizes),
        spacing=args.spacing,
        label=args.label,
        spacings=tuple(args.spacings) if args.spacings else (),
        msri=_pruning_overrides(args) or None,
        use_msri_cache=args.msri_cache,
    )
    checkpoint = args.checkpoint or (args.output + ".checkpoint.jsonl")

    def progress(done, total, outcome):
        seed, pins, _spacing = outcome.key
        if outcome.ok:
            r = outcome.result
            print(
                f"[{done}/{total}] seed {seed} pins {pins}: "
                f"RI diam {r.rep_min_ard / r.base_ard:.3f}x, "
                f"DS diam {r.sizing_min_ard / r.base_ard:.3f}x "
                f"({outcome.metrics.runtime_s:.1f}s)"
            )
        else:
            f = outcome.failure
            print(
                f"[{done}/{total}] seed {seed} pins {pins}: FAILED "
                f"({f.error_type} after {f.attempts} attempt(s): {f.message})"
            )

    campaign = run_campaign(
        config,
        workers=args.workers,
        timeout=args.timeout,
        max_retries=args.max_retries,
        checkpoint_path=checkpoint,
        resume=args.resume,
        progress=progress,
    )
    campaign.save(args.output)
    print()
    print(campaign.summary())
    print()
    print(campaign.runtime_summary())
    print(f"\ncampaign saved to {args.output} "
          f"({campaign.elapsed_seconds:.1f}s total, "
          f"checkpoint: {checkpoint})")
    if campaign.failures:
        print(f"{len(campaign.failures)} job(s) failed; "
              f"re-run with --resume to retry them")
        return 1
    return 0


def _cmd_serve(args) -> int:
    from .serve.server import ServeConfig, run_server, start_in_thread

    if args.self_test:
        from .serve.loadgen import run_load

        config = ServeConfig(
            host=args.host,
            port=0,  # ephemeral: never collide with a real deployment
            request_timeout_s=args.timeout,
            session_ttl_s=args.ttl,
            max_frame_bytes=args.max_frame_bytes,
        )
        server, stop = start_in_thread(config)
        try:
            report = run_load(
                args.host,
                server.port,
                sessions=args.sessions,
                edits_per_session=args.edits,
                seed=args.seed,
            )
        finally:
            stop()
        t = Table(
            f"serve self-test ({args.sessions} concurrent sessions)",
            ["metric", "value"],
        )
        t.add_row("edit round-trips", report.edits_total)
        t.add_row("wall time (s)", f"{report.wall_s:.2f}")
        t.add_row("throughput (edits/s)", f"{report.throughput_eps:.0f}")
        t.add_row("p50 latency (ms)", f"{report.p50_ms:.2f}")
        t.add_row("p99 latency (ms)", f"{report.p99_ms:.2f}")
        t.add_row("max latency (ms)", f"{report.max_ms:.2f}")
        t.add_row("byte-identity mismatches", report.mismatches)
        print(t)
        for line in report.mismatch_details + report.errors:
            print(f"  {line}", file=sys.stderr)
        if not report.ok:
            print("self-test FAILED", file=sys.stderr)
            return 1
        print("self-test passed: all responses byte-identical to the "
              "serial replay")
        return 0

    run_server(
        ServeConfig(
            host=args.host,
            port=args.port,
            request_timeout_s=args.timeout,
            session_ttl_s=args.ttl,
            max_frame_bytes=args.max_frame_bytes,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
