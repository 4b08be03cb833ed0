"""Experiment campaigns: sharded, resumable parameter sweeps.

Wraps :func:`repro.analysis.experiments.run_instance` into a declarative
sweep (seeds × net sizes × insertion spacings), records provenance
(configuration, package version, wall-clock, per-job metrics), and
serializes everything so a full experimental record can be archived,
diffed, and re-summarized without re-running the optimizer.

The execution layer is :mod:`repro.analysis.executor`: ``workers=0`` runs
the sweep inline (serial fallback), ``workers>=1`` shards it over a pool
of worker processes with per-job timeouts and retry-with-backoff.  Every
job is fully determined by its ``(seed, size, spacing)`` key, so the
parallel path produces results identical to the serial path at any worker
count — only the runtime fields differ.

With a ``checkpoint_path``, every finished job is appended to a JSONL log
the moment it completes; ``resume=True`` replays that log and re-runs only
the jobs that are missing or previously failed.  A job that exhausts its
retries becomes a structured failure record in ``Campaign.failures``
instead of crashing the sweep.

Used by the CLI's ``campaign`` subcommand and handy for custom studies:

>>> from repro.analysis.campaign import CampaignConfig, run_campaign
>>> campaign = run_campaign(CampaignConfig(seeds=(0, 1), sizes=(10,)), workers=4)
... # doctest: +SKIP
>>> print(campaign.summary().render())
... # doctest: +SKIP
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..io.serialize import (
    CAMPAIGN_SCHEMA,
    campaign_from_dict,
    campaign_to_dict,
    instance_result_from_dict,
    instance_result_to_dict,
)
from ..obs import core as obs
from .executor import (
    Job,
    JobFailure,
    JobMetrics,
    JobOutcome,
    JsonlCheckpoint,
    run_jobs,
)
from .experiments import InstanceResult, run_instance, table2, table4
from .report import Table

__all__ = [
    "CAMPAIGN_SCHEMA",
    "CampaignConfig",
    "Campaign",
    "run_campaign",
    "load_campaign",
    "campaign_checkpoint",
]

#: ``(seed, n_pins, spacing)`` — the identity of one sweep job.
JobKey = Tuple[int, int, float]


@dataclass(frozen=True)
class CampaignConfig:
    """What to sweep.

    ``spacings`` widens the grid to several insertion spacings; when empty
    the single ``spacing`` value is swept (the original v1 behaviour, and
    what v1 records deserialize to).

    ``msri`` optionally carries pruning-knob overrides applied to every
    job (``prefilter``, ``max_front_width``, ``max_pwl_segments``,
    ``lossy``, ``spec``, ``quantize_bound`` — validated through
    :func:`repro.core.msri.validate_msri_overrides`); ``None`` sweeps with
    the exact defaults.  The dict is part of the campaign's provenance
    record, so an archived sweep states which pruning regime produced it.

    ``use_msri_cache`` routes every job's two optimizations through a
    worker-process-local subtree-front cache
    (:class:`~repro.core.msri_cache.MSRICache`): bit-identical results,
    with repeats across the spacing axis (and, under ``quantize_bound``,
    across nearby seeds) answered from memo.  Part of the provenance
    record like ``msri``.
    """

    seeds: Tuple[int, ...] = (0, 1, 2)
    sizes: Tuple[int, ...] = (10, 20)
    spacing: float = 800.0
    label: str = "default"
    spacings: Tuple[float, ...] = ()
    msri: Optional[Dict] = None
    use_msri_cache: bool = False

    def __post_init__(self) -> None:
        if not self.seeds or not self.sizes:
            raise ValueError("campaign needs at least one seed and one size")
        if self.spacing <= 0.0:
            raise ValueError("spacing must be positive")
        if any(s <= 0.0 for s in self.spacings):
            raise ValueError("spacings must be positive")
        from ..core.msri import validate_msri_overrides

        # normalize eagerly so a bad knob fails at config time, not mid-sweep
        object.__setattr__(
            self, "msri", validate_msri_overrides(self.msri) or None
        )

    def sweep_spacings(self) -> Tuple[float, ...]:
        """The spacing axis actually swept."""
        return self.spacings if self.spacings else (self.spacing,)

    def jobs(self) -> List[JobKey]:
        """The (seed, size, spacing) grid in deterministic execution order."""
        return [
            (seed, size, spacing)
            for spacing in self.sweep_spacings()
            for size in self.sizes
            for seed in self.seeds
        ]


@dataclass
class Campaign:
    """A completed (or partially completed) sweep.

    ``failures`` holds one structured record per job that exhausted its
    retry budget; ``metrics`` holds per-job wall-clock / peak-RSS records
    (one per executed job — resumed jobs carry the metrics of the run that
    actually executed them).
    """

    config: CampaignConfig
    results: List[InstanceResult] = field(default_factory=list)
    failures: List[JobFailure] = field(default_factory=list)
    metrics: List[JobMetrics] = field(default_factory=list)
    started_at: float = 0.0
    elapsed_seconds: float = 0.0
    version: str = ""
    workers: int = 0

    def summary(self) -> Table:
        """The Table II-style normalized summary for this campaign."""
        return table2(self.results)

    def runtime_summary(self) -> Table:
        """Table IV plus per-job wall-clock / peak-RSS columns when known."""
        return table4(self.results, metrics=self.metrics or None)

    def result_for(
        self, seed: int, size: int, spacing: Optional[float] = None
    ) -> Optional[InstanceResult]:
        """The result for a grid point; ``spacing=None`` matches any spacing.

        Scans newest-first so duplicate records for a retried or re-merged
        job resolve to the most recent one.
        """
        for r in reversed(self.results):
            if r.seed != seed or r.n_pins != size:
                continue
            # spacing is a grid identity (config value round-tripped through
            # JSON), not a computed quantity, so exact match is correct
            if spacing is not None and r.spacing != spacing:  # repro: noqa[R001]
                continue
            return r
        return None

    def failure_for(
        self, seed: int, size: int, spacing: Optional[float] = None
    ) -> Optional[JobFailure]:
        for f in reversed(self.failures):
            if f.key[0] != seed or f.key[1] != size:
                continue
            if spacing is not None and f.key[2] != spacing:
                continue
            return f
        return None

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> Dict:
        return campaign_to_dict(self)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    @classmethod
    def from_dict(cls, data: Dict) -> "Campaign":
        return campaign_from_dict(data)


def campaign_checkpoint(path: str) -> JsonlCheckpoint:
    """The JSONL checkpoint used by :func:`run_campaign`, result codec wired."""
    return JsonlCheckpoint(
        path,
        encode_result=instance_result_to_dict,
        decode_result=instance_result_from_dict,
    )


def run_campaign(
    config: CampaignConfig,
    *,
    workers: int = 0,
    timeout: Optional[float] = None,
    max_retries: int = 0,
    retry_backoff_s: float = 0.25,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    progress: Optional[Callable[[int, int, JobOutcome], None]] = None,
    job_fn: Optional[Callable[[int, int, float], InstanceResult]] = None,
) -> Campaign:
    """Execute every job in the grid; always returns a complete Campaign.

    ``workers=0`` runs inline; ``workers>=1`` shards the grid over a
    process pool (bit-identical results, see module docstring).  With
    ``checkpoint_path`` every outcome is flushed to a JSONL log as it
    lands; ``resume=True`` additionally replays an existing log first and
    skips the jobs it already completed (failed jobs are re-run).

    ``progress(done, total, outcome)`` is invoked after each freshly
    executed job.  ``job_fn`` swaps the per-job callable — the hook the
    fault-injection tests use; it must be picklable for ``workers>=1``.
    """
    import functools

    from .. import __version__

    if config.msri is not None and job_fn is not None:
        raise ValueError(
            "config.msri overrides compose with the default job only; "
            "a custom job_fn must apply its own MSRI options"
        )
    if config.use_msri_cache and job_fn is not None:
        raise ValueError(
            "config.use_msri_cache composes with the default job only; "
            "a custom job_fn must manage its own cache"
        )
    fn = job_fn if job_fn is not None else run_instance
    if config.msri is not None or config.use_msri_cache:
        # module-level function + keyword partial: picklable for workers>=1
        kwargs: Dict = {}
        if config.msri is not None:
            kwargs["msri"] = dict(config.msri)
        if config.use_msri_cache:
            kwargs["use_msri_cache"] = True
        fn = functools.partial(run_instance, **kwargs)
    keys = config.jobs()
    jobs = [Job(key=key, args=key) for key in keys]

    checkpoint: Optional[JsonlCheckpoint] = None
    completed: Dict[JobKey, JobOutcome] = {}
    if checkpoint_path is not None:
        checkpoint = campaign_checkpoint(checkpoint_path)
        if resume and checkpoint.exists():
            grid = set(keys)
            completed = {
                key: outcome
                for key, outcome in checkpoint.load().items()
                if key in grid and outcome.ok
            }

    pending = [job for job in jobs if job.key not in completed]

    campaign = Campaign(
        config=config,
        # epoch wall clock, for display/provenance only: it can jump (NTP,
        # DST).  Every duration metric — elapsed_seconds below and the
        # per-job JobMetrics.runtime_s in the executor — is measured on
        # time.perf_counter(), which is monotonic.
        started_at=time.time(),
        version=__version__,
        workers=workers,
    )

    def _progress(done: int, total: int, outcome: JobOutcome) -> None:
        if progress is not None:
            progress(done + len(completed), len(jobs), outcome)

    t0 = time.perf_counter()
    try:
        with obs.trace(
            "campaign.run", label=config.label, jobs=len(jobs), workers=workers
        ):
            executed = run_jobs(
                fn,
                pending,
                workers=workers,
                timeout=timeout,
                max_retries=max_retries,
                retry_backoff_s=retry_backoff_s,
                checkpoint=checkpoint,
                progress=_progress,
            )
    finally:
        if checkpoint is not None:
            checkpoint.close()

    by_key = dict(completed)
    by_key.update({o.key: o for o in executed})
    for job in jobs:
        outcome = by_key[job.key]
        campaign.metrics.append(outcome.metrics)
        if outcome.ok:
            campaign.results.append(outcome.result)
        else:
            campaign.failures.append(outcome.failure)
    campaign.elapsed_seconds = time.perf_counter() - t0
    return campaign


def load_campaign(path: str) -> Campaign:
    with open(path) as fh:
        return Campaign.from_dict(json.load(fh))
