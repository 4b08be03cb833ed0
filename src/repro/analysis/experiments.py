"""Experiment harness regenerating the paper's Sec. VI tables.

One :func:`run_instance` call evaluates a single seeded net in both modes
(driver sizing and repeater insertion) and records everything Tables II–IV
need; the ``table2``/``table3``/``table4`` aggregators format those records
into the paper's columns.

Normalization follows the paper exactly: "results in columns 3–7 are
averages of values normalized to the corresponding values for min-cost
solutions (i.e., no repeater insertion or sizing)" — the min-cost solution
is the all-1X-terminal, zero-repeater assignment, whose cost is two
equivalent 1X buffers per pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..core.msri import insert_repeaters, validate_msri_overrides
from ..netgen.workloads import (
    PAPER_SPACING_UM,
    driver_sizing_options,
    paper_instance,
    paper_technology,
    repeater_insertion_options,
)
from .report import Table

__all__ = [
    "InstanceResult",
    "run_instance",
    "table1",
    "table2",
    "table3",
    "table4",
]


@dataclass(frozen=True)
class InstanceResult:
    """Everything Tables II–IV need about one seeded net."""

    seed: int
    n_pins: int
    n_insertion_points: int
    wirelength_um: float
    base_cost: float            # all-1X, no repeaters (2 per pin)
    base_ard: float             # its RC-diameter (ps)
    sizing_min_ard: float       # best diameter achievable by sizing alone
    sizing_min_ard_cost: float  # cost of that sizing solution
    sizing_runtime_s: float
    rep_min_ard: float          # best diameter achievable by repeaters
    rep_min_ard_cost: float
    rep_runtime_s: float
    rep_cost_at_sizing_ard: Optional[float]  # cheapest repeater sol <= sizing diam
    spacing: float = 0.0        # insertion spacing (um) this instance used


#: Worker-process-local subtree-front cache for ``use_msri_cache`` runs.
#: One per process: campaign jobs land on a pool worker repeatedly, and
#: consecutive jobs (same topology swept over spacings, or neighboring
#: seeds in the same ``c_max`` bucket under ``quantize_bound``) share
#: subtree fronts.  Process-local state never crosses the executor
#: boundary, so results stay independent of the worker schedule.
_WORKER_MSRI_CACHE = None


def _worker_msri_cache():
    global _WORKER_MSRI_CACHE
    if _WORKER_MSRI_CACHE is None:
        from ..core.msri_cache import MSRICache

        _WORKER_MSRI_CACHE = MSRICache()
    return _WORKER_MSRI_CACHE


def run_instance(
    seed: int,
    n_pins: int,
    spacing: float = PAPER_SPACING_UM,
    *,
    msri: Optional[dict] = None,
    use_msri_cache: bool = False,
) -> InstanceResult:
    """Evaluate one net in both optimization modes.

    ``msri`` optionally carries pruning-knob overrides (``prefilter``,
    ``max_front_width``, ``max_pwl_segments``, ``lossy``, ``spec``,
    ``quantize_bound`` — see :func:`repro.core.msri.validate_msri_overrides`)
    applied to *both* optimization modes.  ``use_msri_cache`` routes both
    optimizations through a worker-process-local subtree-front cache
    (:class:`~repro.core.msri_cache.MSRICache`) — bit-identical results,
    cheaper repeats; pair with ``quantize_bound`` for cross-net hits.
    """
    tech = paper_technology()
    tree = paper_instance(seed, n_pins, spacing)

    overrides = validate_msri_overrides(msri)
    if use_msri_cache:
        from ..core.msri_engine import insert_repeaters_cached

        cache = _worker_msri_cache()
        sizing = insert_repeaters_cached(
            tree, tech, driver_sizing_options(**overrides), cache=cache
        )
        repeater = insert_repeaters_cached(
            tree, tech, repeater_insertion_options(**overrides), cache=cache
        )
    else:
        sizing = insert_repeaters(
            tree, tech, driver_sizing_options(**overrides)
        )
        repeater = insert_repeaters(
            tree, tech, repeater_insertion_options(**overrides)
        )

    base = repeater.min_cost()  # no repeaters, 1X terminals
    sizing_best = sizing.min_ard()
    rep_best = repeater.min_ard()
    matching = repeater.min_cost_meeting(sizing_best.ard)

    return InstanceResult(
        seed=seed,
        n_pins=n_pins,
        n_insertion_points=len(tree.insertion_indices()),
        wirelength_um=tree.total_wire_length(),
        base_cost=base.cost,
        base_ard=base.ard,
        sizing_min_ard=sizing_best.ard,
        sizing_min_ard_cost=sizing_best.cost,
        sizing_runtime_s=sizing.stats.runtime_seconds,
        rep_min_ard=rep_best.ard,
        rep_min_ard_cost=rep_best.cost,
        rep_runtime_s=repeater.stats.runtime_seconds,
        rep_cost_at_sizing_ard=None if matching is None else matching.cost,
        spacing=spacing,
    )


def table1() -> Table:
    """Table I: the technology parameters in force (with provenance note)."""
    from ..tech.buffers import DEFAULT_BUFFER

    tech = paper_technology()
    t = Table(
        "Table I: technology parameters",
        ["parameter", "value", "unit"],
    )
    t.add_row("wire resistance", tech.unit_resistance, "ohm/um")
    t.add_row("wire capacitance", tech.unit_capacitance * 1000.0, "fF/um")
    t.add_row("1X buffer intrinsic delay", DEFAULT_BUFFER.intrinsic_delay, "ps")
    t.add_row("1X buffer output resistance", DEFAULT_BUFFER.output_resistance, "ohm")
    t.add_row("1X buffer input capacitance", DEFAULT_BUFFER.input_capacitance, "pF")
    t.add_row("1X buffer cost", DEFAULT_BUFFER.cost, "1X equivalents")
    t.add_row(
        "previous-stage resistance", tech.extras["prev_stage_resistance"], "ohm"
    )
    t.add_row(
        "subsequent-stage capacitance", tech.extras["next_stage_capacitance"], "pF"
    )
    t.add_note(
        "repeaters and terminal drivers are pairs of these unidirectional "
        "buffers (paper Table I caption); kX buffer = cost k, R/k, k*C."
    )
    t.add_note(
        "wire constants and 1X delay/resistance are the documented "
        "substitution for the unrecoverable Table I values (DESIGN.md section 5)."
    )
    return t


def table2(results: Sequence[InstanceResult]) -> Table:
    """Table II: normalized sizing-vs-repeater comparison, averaged per size."""
    t = Table(
        "Table II: driver sizing vs repeater insertion "
        "(normalized to the min-cost solution)",
        [
            "pins",
            "avg ins.pts",
            "DS diam",
            "DS cost",
            "RI cost @DS diam",
            "RI diam",
            "RI cost",
        ],
    )
    for n_pins in sorted({r.n_pins for r in results}):
        group = [r for r in results if r.n_pins == n_pins]
        t.add_row(
            n_pins,
            _avg(r.n_insertion_points for r in group),
            _avg(r.sizing_min_ard / r.base_ard for r in group),
            _avg(r.sizing_min_ard_cost / r.base_cost for r in group),
            _avg(
                (r.rep_cost_at_sizing_ard or float("nan")) / r.base_cost
                for r in group
            ),
            _avg(r.rep_min_ard / r.base_ard for r in group),
            _avg(r.rep_min_ard_cost / r.base_cost for r in group),
        )
    t.add_note(
        "columns 3-7 normalized to the min-cost solution (no repeaters, all "
        "1X terminal buffers); paper reference values for 10 pins: "
        "DS diam 0.73, RI diam 0.55."
    )
    return t


def table3(results: Sequence[InstanceResult]) -> Table:
    """Table III: fastest sizing vs fastest repeater solution, six samples."""
    t = Table(
        "Table III: fastest driver-sizing and repeater-insertion solutions",
        ["net", "pins", "DS diam (ps)", "DS cost", "RI diam (ps)", "RI cost"],
    )
    for k, r in enumerate(results, start=1):
        t.add_row(
            f"net{k}",
            r.n_pins,
            r.sizing_min_ard,
            r.sizing_min_ard_cost,
            r.rep_min_ard,
            r.rep_min_ard_cost,
        )
    t.add_note("cost in equivalent 1X buffers, terminal buffers included.")
    return t


def table4(
    results: Sequence[InstanceResult], metrics: Optional[Sequence] = None
) -> Table:
    """Table IV: average optimizer CPU seconds per net size and mode.

    With campaign ``metrics`` (per-job :class:`~repro.analysis.executor.
    JobMetrics`-shaped records keyed ``(seed, size, spacing)``), two
    observability columns join the paper's: average end-to-end job
    wall-clock and the peak worker RSS seen for that size.  When any metric
    additionally carries a per-job observability summary (``metrics[i].obs``
    — a campaign run under ``repro-msri trace``/``REPRO_OBS=1``), two DP
    columns follow: total MSRI candidate solutions generated and kept for
    that size, the paper's pruning-effectiveness numbers per instance.
    """
    columns = ["pins", "repeater insertion", "driver sizing"]
    with_obs = metrics is not None and any(
        getattr(m, "obs", None) for m in metrics
    )
    if metrics is not None:
        columns += ["job wall (s)", "peak RSS (MB)"]
    if with_obs:
        columns += ["DP generated", "DP kept"]
    t = Table("Table IV: average run times (CPU seconds)", columns)
    for n_pins in sorted({r.n_pins for r in results}):
        group = [r for r in results if r.n_pins == n_pins]
        row = [
            n_pins,
            _avg(r.rep_runtime_s for r in group),
            _avg(r.sizing_runtime_s for r in group),
        ]
        if metrics is not None:
            mgroup = [m for m in metrics if m.key[1] == n_pins]
            if mgroup:
                row.append(_avg(m.runtime_s for m in mgroup))
                row.append(max(m.max_rss_kb for m in mgroup) / 1024.0)
            else:
                row += [float("nan"), float("nan")]
            if with_obs:
                row.append(_obs_total(mgroup, "msri.solutions.generated"))
                row.append(_obs_total(mgroup, "msri.solutions.kept"))
        t.add_row(*row)
    t.add_note("this machine, pure-Python implementation; the paper used a SPARC 10.")
    return t


def _avg(values: Iterable[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals)


def _obs_total(metrics: Sequence, counter: str) -> float:
    """Sum of one observability counter over a group of job metrics."""
    return float(
        sum(
            (m.obs or {}).get("counters", {}).get(counter, 0)
            for m in metrics
            if getattr(m, "obs", None)
        )
    )
