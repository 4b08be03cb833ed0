"""Build the editable timing engine by name.

Callers choose a timing engine by passing an object: the reference
:class:`~repro.rctree.elmore.ElmoreAnalyzer` (or :func:`repro.core.ard.ard`)
is the oracle, and :class:`~repro.rctree.flat.FlatARDEngine` is the one
editable engine.  This module keeps only the string spelling ``"flat"``
for callers that already name it.
"""

from __future__ import annotations

from typing import Optional

from ..tech.parameters import Technology
from .engine import EditableEngine, EvalContext
from .flat import FlatARDEngine
from .topology import RoutingTree

__all__ = ["make_editable_engine"]


def make_editable_engine(
    name: str,
    tree: RoutingTree,
    tech: Technology,
    *,
    context: Optional[EvalContext] = None,
    include_timing: bool = False,
) -> EditableEngine:
    """Build a :class:`FlatARDEngine` over ``tree``; ``name`` must be
    ``"flat"``.

    ``include_timing=True`` requests the per-node timing table on every
    ``evaluate()``.  Raises :class:`ValueError` for any other name.
    """
    if name != "flat":
        raise ValueError(f"unknown engine {name!r}; the editable engine is 'flat'")
    return FlatARDEngine(
        tree, tech, context=context, include_timing=include_timing
    )
