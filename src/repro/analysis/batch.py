"""Multi-core batched net evaluation over the campaign executor.

:func:`repro.rctree.flat.evaluate_batch` amortizes per-net overhead inside
one process; this module shards a batch across worker processes with
:func:`repro.analysis.executor.run_jobs`, which adds kill-safe retries and
per-shard observability for free.  Shards are evaluated independently
(every net is a pure function of its tree + context), so results are
identical to the serial call and are returned in input order.

The worker function is module-level and its arguments are plain picklable
values (trees, contexts, strings) — the executor's process-pool contract.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from ..rctree.engine import ARDResult, EvalContext
from ..rctree.flat import FlatNetCache, evaluate_batch
from ..rctree.topology import RoutingTree
from ..tech.parameters import Technology
from .executor import Job, run_jobs

__all__ = ["evaluate_batch_parallel"]


def _evaluate_shard(
    trees: Sequence[RoutingTree],
    tech: Technology,
    contexts: Optional[Sequence[Optional[EvalContext]]],
    include_timing: bool,
) -> List[ARDResult]:
    """One worker's share of the batch (module-level for picklability)."""
    return evaluate_batch(
        trees,
        tech,
        contexts=contexts,
        include_timing=include_timing,
    )


def evaluate_batch_parallel(
    nets: Sequence[RoutingTree],
    tech: Technology,
    *,
    contexts: Union[None, EvalContext, Sequence[Optional[EvalContext]]] = None,
    include_timing: bool = False,
    workers: int = 0,
    shard_size: int = 64,
    timeout: Optional[float] = None,
    max_retries: int = 0,
    cache: Optional[FlatNetCache] = None,
) -> List[ARDResult]:
    """Evaluate many nets across ``workers`` processes; results in input order.

    ``workers=0`` falls back to the serial
    :func:`~repro.rctree.flat.evaluate_batch` (no process pool, no
    pickling).  Otherwise the batch is cut into shards of ``shard_size``
    nets, one executor job each — large enough to amortize pickling, small
    enough to keep the pool busy.  ``timeout`` and ``max_retries`` are the
    executor's per-job knobs; a shard that exhausts its retries raises
    :class:`RuntimeError` (partial results are never returned silently).

    ``cache`` (a :class:`~repro.rctree.flat.FlatNetCache`) feeds the
    serial path only: compiled columns live in this process and cannot
    cross the process-pool boundary, so sharded runs ignore it — repeat
    nets are recompiled in the workers rather than shipped as pickles.
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    n_batch = len(nets)
    if isinstance(contexts, EvalContext) or contexts is None:
        ctx_list: List[Optional[EvalContext]] = [contexts] * n_batch
    else:
        ctx_list = list(contexts)
        if len(ctx_list) != n_batch:
            raise ValueError(
                f"contexts length {len(ctx_list)} != nets length {n_batch}"
            )
    if workers == 0 or n_batch <= shard_size:
        return evaluate_batch(
            nets,
            tech,
            contexts=ctx_list,
            include_timing=include_timing,
            cache=cache,
        )

    nets = list(nets)
    jobs = []
    for shard_idx, start in enumerate(range(0, n_batch, shard_size)):
        stop = min(start + shard_size, n_batch)
        jobs.append(
            Job(
                key=("flat-batch", shard_idx, stop - start),
                args=(
                    nets[start:stop],
                    tech,
                    ctx_list[start:stop],
                    include_timing,
                ),
            )
        )
    outcomes = run_jobs(
        _evaluate_shard,
        jobs,
        workers=workers,
        timeout=timeout,
        max_retries=max_retries,
    )
    results: List[ARDResult] = []
    for outcome in outcomes:
        if not outcome.ok:
            f = outcome.failure
            raise RuntimeError(
                f"batch shard {f.key} failed after {f.attempts} attempt(s): "
                f"{f.error_type}: {f.message}"
            )
        results.extend(outcome.result)
    return results
