"""Process-variation robustness analysis of repeater-insertion solutions.

The optimizer commits to an assignment using nominal technology constants,
but fabricated wires and devices vary.  This module quantifies how a
solution's augmented RC-diameter moves under random multiplicative
perturbations of the wire constants and device parameters — a Monte-Carlo
corner sweep over one persistent flat timing engine.

The headline question (answered by ``benchmarks/bench_variation.py``): do
the optimizer's buffered solutions stay better than the unbuffered net
across the process spread, or does their advantage evaporate at corners?
Because a repeater decouples its subtree, buffered solutions also
concentrate each path's delay into fewer RC products, which *reduces*
relative spread — measurable here.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

try:  # numpy supplies only the RNG and summary statistics here
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None

from ..rctree.engine import EvalContext
from ..rctree.flat import FlatARDEngine
from ..rctree.topology import NodeKind, RoutingTree
from ..tech.buffers import Repeater
from ..tech.parameters import Technology

__all__ = ["VariationModel", "VariationResult", "monte_carlo_ard"]


@dataclass(frozen=True)
class VariationModel:
    """Relative 3-sigma spreads of each parameter class (lognormal-ish).

    Each sample draws one global multiplicative factor per parameter class
    (die-to-die variation): wire resistance, wire capacitance, device
    resistance, device capacitance.  Factors are
    ``exp(N(0, sigma))`` with ``sigma = spread / 3`` so ``spread`` reads as
    a 3-sigma relative variation.
    """

    wire_resistance_spread: float = 0.15
    wire_capacitance_spread: float = 0.10
    device_resistance_spread: float = 0.20
    device_capacitance_spread: float = 0.10

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            if getattr(self, f.name) < 0.0:
                raise ValueError(f"{f.name} must be non-negative")


@dataclass(frozen=True)
class VariationResult:
    """Distribution statistics of the sampled ARD."""

    nominal: float
    mean: float
    std: float
    p95: float
    worst: float
    samples: Tuple[float, ...]

    @property
    def relative_spread(self) -> float:
        """Std/mean — the robustness figure of merit."""
        return self.std / self.mean if self.mean else math.nan


def monte_carlo_ard(
    tree: RoutingTree,
    tech: Technology,
    assignment: Optional[Dict[int, Repeater]] = None,
    *,
    model: VariationModel = VariationModel(),
    samples: int = 100,
    seed: int = 0,
) -> VariationResult:
    """Sample the ARD under die-to-die parameter variation.

    All samples run on one persistent
    :class:`~repro.rctree.flat.FlatARDEngine`: a sample is a
    :meth:`set_wire_scale` (die-to-die wire corner) plus per-terminal and
    per-repeater device overrides — no tree or engine rebuild per sample.
    Requires numpy.
    """
    if np is None:
        raise RuntimeError("monte_carlo_ard requires numpy (pip install numpy)")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    base_assignment = dict(assignment or {})
    engine = FlatARDEngine(
        tree, tech, context=EvalContext(assignment=base_assignment)
    )
    nominal = engine.evaluate(tree).value
    terminals = [
        (idx, tree.node(idx).terminal)
        for idx in range(len(tree))
        if tree.node(idx).kind is NodeKind.TERMINAL
    ]
    values: List[float] = []
    for _ in range(samples):
        f_wr = _factor(rng, model.wire_resistance_spread)
        f_wc = _factor(rng, model.wire_capacitance_spread)
        f_dr = _factor(rng, model.device_resistance_spread)
        f_dc = _factor(rng, model.device_capacitance_spread)
        engine.set_wire_scale(
            resistance_factor=f_wr, capacitance_factor=f_wc
        )
        for idx, base in terminals:
            engine.set_terminal(
                idx,
                dataclasses.replace(
                    base,
                    resistance=base.resistance * f_dr,
                    capacitance=base.capacitance * f_dc,
                ),
            )
        for idx, rep in _scaled_repeaters(base_assignment, f_dr, f_dc).items():
            engine.set_assignment(idx, rep)
        values.append(engine.evaluate(tree).value)
    arr = np.asarray(values)
    return VariationResult(
        nominal=nominal,
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if samples > 1 else 0.0,
        p95=float(np.percentile(arr, 95)),
        worst=float(arr.max()),
        samples=tuple(values),
    )


def _factor(rng, spread: float) -> float:
    if spread == 0.0:  # repro: noqa[R001] exact zero is the "disabled" sentinel, validated non-negative
        return 1.0
    return float(np.exp(rng.normal(0.0, spread / 3.0)))


def _scaled_repeaters(
    assignment: Dict[int, Repeater], f_r: float, f_c: float
) -> Dict[int, Repeater]:
    out = {}
    for idx, rep in assignment.items():
        out[idx] = dataclasses.replace(
            rep,
            r_ab=rep.r_ab * f_r,
            r_ba=rep.r_ba * f_r,
            c_a=rep.c_a * f_c,
            c_b=rep.c_b * f_c,
        )
    return out
