"""The unified timing-engine surface: ``TimingEngine`` and ``EvalContext``.

The repository grew four ways to ask "what is the ARD of this tree?" —
:func:`repro.core.ard.ard`, :class:`~repro.rctree.elmore.ElmoreAnalyzer`,
:class:`~repro.rctree.slew.SlewAnalyzer` and
:func:`repro.sim.propagation.simulated_ard` — each with its own calling
convention.  This module defines the one surface they all share:

* :class:`EvalContext` — the evaluation knobs (repeater assignment, wire
  widths, companion-capacitance model) as a single frozen value object,
  replacing the scattered positional/keyword arguments;
* :class:`TimingEngine` — a :class:`typing.Protocol` with ``evaluate()``
  returning an :class:`ARDResult` and ``path_delay(u, v)``, so consumers
  (baselines, analysis, reporting) can take *an engine* instead of
  hard-coding one implementation;
* :class:`EditableEngine` — the protocol of *persistent* engines that also
  accept in-place edits (``set_assignment`` / ``set_terminal`` /
  ``set_wire_width`` / ``set_wire_scale`` / ``reroot``), the surface the
  session server (``repro.serve``) dispatches against;
* :class:`ARDResult` / :class:`SubtreeTiming` — the result types, moved
  here from ``repro.core.ard`` (which re-exports them) so every engine can
  return them without importing the optimizer core.

Engines implementing ``TimingEngine``: ``ElmoreAnalyzer`` (full Fig. 2
pass), ``SlewAnalyzer`` (slew-aware pair enumeration), ``FlatARDEngine``
(array kernel with dirty-root-path re-propagation) and
``SimulationEngine`` (event-driven cross-check).  ``FlatARDEngine``
additionally implements ``EditableEngine`` and is the one editable
engine.  Callers choose an engine by passing the object (or a per-tree
factory), not a name; ``ElmoreAnalyzer`` and ``ard()`` are the oracle.

As of v2.0 the engines take their knobs exclusively as one keyword-only
``context=EvalContext(...)``; the pre-context per-knob shims
(``ard(tree, tech, assignment)`` and friends) were removed and now raise
:class:`TypeError` — see docs/API.md for the migration table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

try:  # pragma: no cover - Protocol is typing_extensions-free on >=3.8
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[no-redef]
        return cls


__all__ = [
    "ARDResult",
    "SubtreeTiming",
    "EvalContext",
    "TimingEngine",
    "EditableEngine",
]


@dataclass(frozen=True)
class SubtreeTiming:
    """Per-subtree quantities of the Fig. 2 recursion, with arg-max tracking.

    ``arrival``/``required``/``diameter`` are ``-inf`` when the subtree holds
    no source / no sink / no source-sink pair respectively; the companion
    index fields are ``None`` in those cases.
    """

    arrival: float
    arrival_source: Optional[int]
    required: float
    required_sink: Optional[int]
    diameter: float
    diameter_pair: Optional[Tuple[int, int]]


@dataclass(frozen=True)
class ARDResult:
    """Outcome of an ARD computation.

    ``value`` is ``-inf`` for nets with no source/sink pair.  ``source`` and
    ``sink`` are the node indices of the critical pair achieving the ARD.
    ``timing`` exposes the per-subtree table for diagnostics and tests; only
    the full :func:`repro.core.ard.compute_ard` pass populates it — engines
    that never materialize per-node scalars (``SlewAnalyzer``,
    ``SimulationEngine``, ``FlatARDEngine`` unless built with
    ``include_timing=True``) return it empty.
    """

    value: float
    source: Optional[int]
    sink: Optional[int]
    timing: Dict[int, SubtreeTiming]

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)


@dataclass(frozen=True)
class EvalContext:
    """Everything that parameterizes one timing evaluation of a tree.

    Construct with keyword arguments only.  The three fields were previously
    scattered positional/keyword knobs on ``ard()``, ``ElmoreAnalyzer`` and
    ``insert_repeaters``:

    ``assignment``
        Insertion-node index → oriented :class:`~repro.tech.buffers.Repeater`
        (A-side facing the root).  Missing indices carry no repeater.
    ``wire_widths``
        Edge index (the child node of the edge) → width factor ``w``; a
        ``w``-wide wire has resistance ``R/w`` and capacitance ``w·C``.
        Missing edges default to 1.
    ``include_companion_cap``
        When True, a repeater's crossing delay also drives the anti-parallel
        companion buffer's input capacitance (sensitivity-study model).
    """

    assignment: Optional[Mapping[int, object]] = field(default=None, kw_only=True)
    wire_widths: Optional[Mapping[int, float]] = field(default=None, kw_only=True)
    include_companion_cap: bool = field(default=False, kw_only=True)


@runtime_checkable
class TimingEngine(Protocol):
    """What every timing engine offers consumers.

    ``evaluate(tree=None)`` returns the engine's ARD as an
    :class:`ARDResult`; engines are bound to one tree at construction, so
    ``tree`` is accepted only as a consistency check (pass the engine's own
    tree or ``None``).  ``path_delay(u, v)`` is the engine's notion of
    ``PD(u, v)`` between two terminals, driver delay included.
    """

    def evaluate(self, tree: object = None) -> ARDResult:
        """The ARD of the engine's tree under its current context."""
        ...  # pragma: no cover - protocol

    def path_delay(self, src: int, dst: int) -> float:
        """Source-to-sink delay ``PD(src, dst)`` in ps."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class EditableEngine(TimingEngine, Protocol):
    """A persistent :class:`TimingEngine` that accepts in-place edits.

    This is the edit surface of :class:`~repro.rctree.flat.FlatARDEngine`
    and the contract the session server (``repro.serve``) dispatches client edit
    streams against.  Every mutation invalidates the cached result; the
    next :meth:`TimingEngine.evaluate` reflects the edit.  Edits validate
    eagerly — a rejected edit raises (``ValueError`` / ``TypeError``)
    *before* mutating engine state, except where an implementation
    documents otherwise.

    The positional parameter names below are part of the contract: lint
    rule R010 (docs/STATIC_ANALYSIS.md) flags implementations whose
    signatures drift from this protocol.
    """

    def set_assignment(self, node: int, repeater: object) -> None:
        """Place (or with ``None`` remove) a repeater at an insertion node."""
        ...  # pragma: no cover - protocol

    def set_terminal(self, node: int, terminal: object) -> None:
        """Override the terminal payload of a terminal node."""
        ...  # pragma: no cover - protocol

    def set_wire_width(self, edge: int, width: object) -> None:
        """Set (or with ``None`` clear) the width factor of one edge."""
        ...  # pragma: no cover - protocol

    def set_wire_scale(
        self, *, resistance_factor: float = 1.0, capacitance_factor: float = 1.0
    ) -> None:
        """Set (absolutely, not cumulatively) global wire variation scalars."""
        ...  # pragma: no cover - protocol

    def reroot(self, node: int) -> None:
        """Re-orient the engine's tree at ``node``."""
        ...  # pragma: no cover - protocol


def check_engine_tree(engine_tree: object, tree: object) -> None:
    """Raise if ``tree`` names a different tree than the engine is bound to.

    Shared by every :class:`TimingEngine` implementation's ``evaluate``.
    """
    if tree is not None and tree is not engine_tree:
        raise ValueError(
            "this engine is bound to its construction tree; build a new "
            "engine to evaluate a different tree"
        )
