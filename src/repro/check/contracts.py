"""Opt-in runtime contracts asserting paper-level invariants.

Set ``REPRO_CHECK=1`` in the environment (or call :func:`set_enabled` /
use the :func:`checking` context manager in tests) and the ARD/MSRI core
verifies, at its pass boundaries:

* **non-negative capacitances** after the Eq. 1/2 passes of the Elmore
  engine (every subtree load and every external load);
* **PWL well-formedness** on construction — segments sorted, domains
  monotone and non-overlapping, coefficients finite (Sec. IV-C);
* **Pareto non-domination** after every minimal-functional-subset prune:
  no surviving solution is strictly dominated anywhere on its remaining
  domain (Definition 4.3), and the root (cost, ARD) front is strictly
  monotone;
* **A/D/Z consistency**: on small trees the linear-time Fig. 2 ARD equals
  the O(n²) brute-force pairwise maximum, and the reported critical pair
  reproduces the reported value.

Contracts raise :class:`ContractViolation` (a ``RuntimeError`` — never a
bare ``assert``, so ``python -O`` cannot strip them).  All checks are
no-ops unless enabled; the hooks in the core cost one predicate call.

This module must stay import-light: the core imports it at module load,
so any ``repro.core`` imports happen lazily inside the verifiers.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

__all__ = [
    "ContractViolation",
    "contracts_enabled",
    "set_enabled",
    "checking",
    "verify_pwl",
    "verify_nonnegative_caps",
    "verify_msri_node_conservation",
    "verify_pareto",
    "verify_front_equivalence",
    "verify_front_values",
    "verify_msri_equivalence",
    "verify_root_front",
    "verify_ard_consistency",
    "verify_flat_consistency",
]

_ENV_VAR = "REPRO_CHECK"


class ContractViolation(RuntimeError):
    """A paper-level invariant failed at a pass boundary."""


def _env_enabled() -> bool:
    return os.environ.get(_ENV_VAR, "").strip().lower() not in ("", "0", "false", "off")


_enabled = _env_enabled()


def contracts_enabled() -> bool:
    """True when runtime invariant checking is active."""
    return _enabled


def set_enabled(flag: Optional[bool]) -> None:
    """Force contracts on/off; ``None`` re-reads the REPRO_CHECK env var."""
    global _enabled
    _enabled = _env_enabled() if flag is None else bool(flag)


@contextmanager
def checking(flag: bool = True) -> Iterator[None]:
    """Temporarily enable (or disable) contracts — for tests."""
    global _enabled
    prev = _enabled
    _enabled = bool(flag)
    try:
        yield
    finally:
        _enabled = prev


# -- individual verifiers -----------------------------------------------------
#
# Each verifier is callable unconditionally (tests drive them directly with
# injected violations); the core calls them behind contracts_enabled().


def verify_pwl(pwl, *, context: str = "") -> None:
    """Segment list is sorted, non-overlapping, with finite coefficients."""
    from ..core.intervals import ATOL

    prev = None
    for seg in pwl.segments:
        if seg.lo > seg.hi:
            raise ContractViolation(
                f"{context or 'PWL'}: empty segment domain [{seg.lo}, {seg.hi}]"
            )
        if not all(
            math.isfinite(v) for v in (seg.lo, seg.hi, seg.intercept, seg.slope)
        ):
            raise ContractViolation(
                f"{context or 'PWL'}: non-finite segment {seg!r}"
            )
        if prev is not None and seg.lo < prev.hi - ATOL:
            raise ContractViolation(
                f"{context or 'PWL'}: segments out of order or overlapping: "
                f"{prev!r} then {seg!r}"
            )
        prev = seg


def verify_nonnegative_caps(analyzer, *, atol: float = 1e-9) -> None:
    """Every Eq. 1 subtree load and Eq. 2 external load is >= 0."""
    tree = analyzer.tree
    for v in range(len(tree)):
        down = analyzer.downstream_cap(v)
        if down < -atol:
            raise ContractViolation(
                f"Eq. 1 violation: downstream capacitance of node {v} is "
                f"{down} pF (negative)"
            )
        if tree.parent(v) is not None:
            up = analyzer.upstream_cap(v)
            if up < -atol:
                raise ContractViolation(
                    f"Eq. 2 violation: upstream capacitance at node {v} is "
                    f"{up} pF (negative)"
                )


def verify_msri_node_conservation(node: int, generated: int, kept: int) -> None:
    """MSRI per-node solution accounting: ``pruned + kept == generated``.

    The DP reports, for every vertex, how many candidate solutions it
    generated and how many survived pruning; the difference is the pruned
    count.  A pruner that *invents* solutions (``kept > generated``) or a
    negative count means the bookkeeping — and therefore every published
    pruning-effectiveness number — is wrong.
    """
    if generated < 0 or kept < 0:
        raise ContractViolation(
            f"MSRI node {node}: negative solution count "
            f"(generated={generated}, kept={kept})"
        )
    if kept > generated:
        raise ContractViolation(
            f"MSRI node {node}: pruning returned {kept} solutions from "
            f"{generated} candidates — pruned + kept != generated"
        )


def verify_pareto(
    solutions: Sequence, *, limit: int = 150, measure_atol: float = 1e-9
) -> None:
    """No solution is strictly dominated anywhere on its surviving domain.

    Re-runs the strict pruning predicate pairwise (Definition 4.3): a
    violation means MFS pruning let a dominated region survive.  To bound
    the O(n²) cost on huge sets only the first ``limit`` solutions (in the
    pruner's own tie-break order) are cross-checked.
    """
    from ..core.mfs import prune_one

    sols = list(solutions)[:limit]
    for i, s in enumerate(sols):
        for j, by in enumerate(sols):
            if i == j:
                continue
            survivor = prune_one(s, by, strict=True)
            if survivor is s:
                continue
            lost = s.domain.measure - (
                0.0 if survivor is None else survivor.domain.measure
            )
            if survivor is None or lost > measure_atol:
                raise ContractViolation(
                    f"Pareto violation after pruning: solution uid={s.uid} "
                    f"({s.describe()}) is strictly dominated by uid={by.uid} "
                    f"({by.describe()}) on a region of measure {lost:g}"
                )


def verify_front_equivalence(
    front: Sequence, baseline: Sequence, *, context: str = ""
) -> None:
    """Two pruned fronts are *bit-identical* up to ordering.

    Exact-mode safety contract of the predictive pre-filters
    (``docs/PRUNING.md``): the front produced with pre-filtering enabled
    must equal the front the pure Fig. 4 pruner computes from the same raw
    candidates — same solutions (by uid), same scalar coordinates, same
    surviving domains, same PWL coordinates.  Comparison is exact (no
    tolerance): the fast path is required to replicate the slow path's
    arithmetic, so any drift is a pruning bug, never float noise.
    """
    label = context or "front equivalence"
    key = lambda s: (s.parity, s.cost, s.cap, s.q, s.uid)  # noqa: E731
    a = sorted(front, key=key)
    b = sorted(baseline, key=key)
    if len(a) != len(b):
        only_a = sorted({s.uid for s in a} - {s.uid for s in b})
        only_b = sorted({s.uid for s in b} - {s.uid for s in a})
        raise ContractViolation(
            f"{label}: fast front has {len(a)} solutions, baseline {len(b)} "
            f"(extra uids {only_a}, missing uids {only_b})"
        )
    for sa, sb in zip(a, b):
        # exact comparison is the contract (see docstring)
        if (
            sa.uid != sb.uid
            or sa.parity != sb.parity
            or sa.cost != sb.cost  # repro: noqa[R001]
            or sa.cap != sb.cap  # repro: noqa[R001]
            or sa.q != sb.q  # repro: noqa[R001]
            or sa.domain != sb.domain
            or sa.arr != sb.arr
            or sa.diam != sb.diam
        ):
            raise ContractViolation(
                f"{label}: solution mismatch — fast uid={sa.uid} "
                f"({sa.describe()}) vs baseline uid={sb.uid} "
                f"({sb.describe()})"
            )


def _solution_value_key(s):
    """A total order on solutions by *content*, ignoring the ``uid``.

    Used where two fronts computed by different paths (cold DP versus a
    cache/incremental reuse) must be compared: uids are process-local
    tie-breaks and legitimately differ, but every value-bearing field must
    be bitwise equal.  ``None`` functions sort before any segment tuple.
    """
    dom = tuple((iv.lo, iv.hi) for iv in s.domain.intervals)
    arr = (
        (0, ())
        if s.arr is None
        else (1, tuple((g.lo, g.hi, g.intercept, g.slope) for g in s.arr.segments))
    )
    diam = (
        (0, ())
        if s.diam is None
        else (1, tuple((g.lo, g.hi, g.intercept, g.slope) for g in s.diam.segments))
    )
    return (s.parity, s.cost, s.cap, s.q, dom, arr, diam)


def verify_front_values(
    front: Sequence, baseline: Sequence, *, context: str = ""
) -> None:
    """Two fronts are bit-identical in every value-bearing field.

    The uid-agnostic sibling of :func:`verify_front_equivalence`: the
    memoized/incremental MSRI paths rebuild solutions with fresh uids, so
    uids may not be compared — but parity, cost, cap, q, the surviving
    domain, and the PWL coordinates of ``arr``/``diam`` must all match the
    cold DP exactly (no tolerance: reuse replays stored bits, so any drift
    is a caching bug, never float noise).
    """
    label = context or "front values"
    a = sorted(front, key=_solution_value_key)
    b = sorted(baseline, key=_solution_value_key)
    if len(a) != len(b):
        raise ContractViolation(
            f"{label}: reused front has {len(a)} solutions, "
            f"cold baseline {len(b)}"
        )
    for sa, sb in zip(a, b):
        if _solution_value_key(sa) != _solution_value_key(sb):
            raise ContractViolation(
                f"{label}: solution value mismatch — reused "
                f"{sa.describe()} vs cold {sb.describe()}"
            )


def verify_msri_equivalence(result, baseline, *, context: str = "") -> None:
    """A reused/incremental MSRI result equals the cold DP — *bit for bit*.

    Compares the root (cost, ARD) suites exactly and every solution's
    reconstructed assignment (node index -> placed object; repeaters and
    driver options are value-equal frozen dataclasses).  uids and trace
    shapes may differ; the answers may not.
    """
    label = context or "MSRI equivalence"
    a, b = result.solutions, baseline.solutions
    if len(a) != len(b):
        raise ContractViolation(
            f"{label}: reused suite has {len(a)} solutions, cold has {len(b)}"
        )
    for sa, sb in zip(a, b):
        # exact comparison is the contract (see docstring)
        if sa.cost != sb.cost or sa.ard != sb.ard:  # repro: noqa[R001]
            raise ContractViolation(
                f"{label}: root solution mismatch — reused (cost={sa.cost!r}, "
                f"ard={sa.ard!r}) vs cold (cost={sb.cost!r}, ard={sb.ard!r})"
            )
        if sa.assignment() != sb.assignment():
            raise ContractViolation(
                f"{label}: assignment mismatch at cost={sa.cost!r} — "
                f"reused {sa.assignment()!r} vs cold {sb.assignment()!r}"
            )


def verify_root_front(roots: Sequence, *, atol: float = 1e-9) -> None:
    """Root suite is strictly increasing in cost, strictly decreasing in ARD."""
    for a, b in zip(roots, roots[1:]):
        if b.cost <= a.cost + atol or b.ard >= a.ard - atol:
            raise ContractViolation(
                f"root front not strictly monotone: (cost={a.cost}, "
                f"ard={a.ard}) followed by (cost={b.cost}, ard={b.ard})"
            )


def verify_ard_consistency(
    result, analyzer, *, max_terminals: int = 12, atol: float = 1e-6
) -> None:
    """Fig. 2 linear-time A/D/Z agrees with brute force on small trees.

    Skipped (returns silently) above ``max_terminals`` — the brute force is
    O(n²) path walks and the contract is meant as a spot check, not a tax.
    """
    terminals = analyzer.tree.terminal_indices()
    if len(terminals) > max_terminals:
        return
    brute = analyzer.ard_bruteforce()
    scale = max(1.0, abs(brute)) if math.isfinite(brute) else 1.0
    both_undefined = not math.isfinite(result.value) and not math.isfinite(brute)
    if not both_undefined and abs(result.value - brute) > atol * scale:
        raise ContractViolation(
            f"ARD inconsistency: Fig. 2 three-pass gives {result.value}, "
            f"brute-force pairwise maximum gives {brute}"
        )
    if result.is_finite and result.source is not None and result.sink is not None:
        via_pair = analyzer.augmented_delay(result.source, result.sink)
        if abs(via_pair - result.value) > atol * scale:
            raise ContractViolation(
                f"critical pair ({result.source}, {result.sink}) reproduces "
                f"{via_pair}, not the reported ARD {result.value}"
            )


def verify_flat_consistency(result, state) -> None:
    """A flat-kernel evaluation equals the reference record pass — *bit for bit*.

    ``state`` is the :class:`~repro.rctree.incremental.EvalState` capturing
    the flat engine's current knobs; the reference ``build_records`` /
    ``finish_root`` replay it from scratch.  The flat kernel is a port of
    that exact arithmetic, so value and critical pair must match with no
    tolerance: any difference is a compilation, kernel porting or
    dirty-path bug, never float drift.
    """
    from ..rctree.incremental import build_records, finish_root

    records = build_records(state)
    value, src, snk = finish_root(state, records)
    both_undefined = not result.is_finite and not math.isfinite(value)
    # exact comparison is the contract: the flat kernel ports this arithmetic
    if not both_undefined and result.value != value:  # repro: noqa[R001]
        raise ContractViolation(
            f"flat-kernel ARD {result.value!r} != reference record pass "
            f"{value!r} (kernel porting bug)"
        )
    if (result.source, result.sink) != (src, snk):
        raise ContractViolation(
            f"flat-kernel critical pair ({result.source}, {result.sink}) != "
            f"reference record pass ({src}, {snk})"
        )
