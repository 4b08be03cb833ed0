"""Analysis utilities: Pareto minima, oracles, reporting, experiments."""

from .campaign import Campaign, CampaignConfig, load_campaign, run_campaign
from .executor import (
    Job,
    JobFailure,
    JobMetrics,
    JobOutcome,
    JsonlCheckpoint,
    run_jobs,
)
from .exhaustive import (
    ExhaustivePoint,
    enumerate_assignments,
    exhaustive_frontier,
    pareto_2d,
)
from .experiments import InstanceResult, run_instance, table1, table2, table3, table4
from .pareto import is_dominated, minima_2d, minima_3d, minima_nd
from .render import render_flame_svg, render_trace_summary, render_tree
from .svg import render_svg, save_svg
from .report import Table, results_dir, save_text
from .variation import VariationModel, VariationResult, monte_carlo_ard

__all__ = [
    "Campaign",
    "CampaignConfig",
    "load_campaign",
    "run_campaign",
    "Job",
    "JobFailure",
    "JobMetrics",
    "JobOutcome",
    "JsonlCheckpoint",
    "run_jobs",
    "ExhaustivePoint",
    "enumerate_assignments",
    "exhaustive_frontier",
    "pareto_2d",
    "InstanceResult",
    "run_instance",
    "table1",
    "table2",
    "table3",
    "table4",
    "is_dominated",
    "minima_2d",
    "minima_3d",
    "minima_nd",
    "render_tree",
    "render_trace_summary",
    "render_flame_svg",
    "render_svg",
    "save_svg",
    "Table",
    "results_dir",
    "save_text",
    "VariationModel",
    "VariationResult",
    "monte_carlo_ard",
]
