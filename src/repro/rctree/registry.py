"""Engine registry: construct any :class:`TimingEngine` by name.

PR 3 unified the engines behind one protocol; this registry adds the last
mile — a *string* spelling usable from CLI flags, config files and
campaign specs.  Consumers (``greedy_insertion``, ``synthesize_topology``,
``monte_carlo_ard``, ``repro-msri ard --engine``) accept an engine name
and resolve it here, so adding an engine is one table entry.

Names
-----
``reference`` / ``elmore``
    :class:`~repro.rctree.elmore.ElmoreAnalyzer` — the full Fig. 2 pass
    with the per-node timing table.
``flat``
    :class:`~repro.rctree.flat.FlatARDEngine` — the array-flattened
    kernel with dirty-root-path re-propagation; the one editable engine.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..tech.parameters import Technology
from .elmore import ElmoreAnalyzer
from .engine import EditableEngine, EvalContext, TimingEngine
from .flat import FlatARDEngine
from .topology import RoutingTree

__all__ = [
    "engine_names",
    "editable_engine_names",
    "make_engine",
    "make_editable_engine",
    "resolve_engine_factory",
]


def _make_elmore(tree, tech, context, include_timing):
    # the full Fig. 2 pass always materializes the timing table
    return ElmoreAnalyzer(tree, tech, context=context)


def _make_flat(tree, tech, context, include_timing):
    return FlatARDEngine(
        tree, tech, context=context, include_timing=include_timing
    )


_BUILDERS: Dict[str, Callable] = {
    "reference": _make_elmore,
    "elmore": _make_elmore,
    "flat": _make_flat,
}

# The class each name constructs — used to classify editability without
# building a throwaway engine.
_CLASSES: Dict[str, type] = {
    "reference": ElmoreAnalyzer,
    "elmore": ElmoreAnalyzer,
    "flat": FlatARDEngine,
}


def engine_names() -> tuple:
    """The registered engine names, sorted (for CLI ``choices=``)."""
    return tuple(sorted(_BUILDERS))


def editable_engine_names() -> tuple:
    """Names whose engines satisfy :class:`EditableEngine` (sorted).

    Classified structurally from the engine class, so a new registry entry
    is picked up without a second table to maintain.
    """
    return tuple(
        name for name in engine_names() if _is_editable(_CLASSES[name])
    )


def _is_editable(cls) -> bool:
    return all(
        callable(getattr(cls, attr, None))
        for attr in (
            "set_assignment",
            "set_terminal",
            "set_wire_width",
            "set_wire_scale",
            "reroot",
        )
    )


def make_engine(
    name: str,
    tree: RoutingTree,
    tech: Technology,
    *,
    context: Optional[EvalContext] = None,
    include_timing: bool = False,
) -> TimingEngine:
    """Construct the named engine over one tree.

    ``include_timing=True`` requests the per-node timing table on every
    ``evaluate()`` (the reference engines always build it).  Raises
    :class:`ValueError` for unknown names (listing the registry) — a
    CLI-friendly failure mode.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; available: {', '.join(engine_names())}"
        ) from None
    return builder(tree, tech, context, include_timing)


def make_editable_engine(
    name: str,
    tree: RoutingTree,
    tech: Technology,
    *,
    context: Optional[EvalContext] = None,
    include_timing: bool = False,
) -> EditableEngine:
    """Construct the named engine, requiring the :class:`EditableEngine`
    surface (session servers dispatch edits against it).

    Raises :class:`ValueError` both for unknown names and for engines that
    evaluate but cannot be edited in place (e.g. ``reference``), listing
    the editable subset.
    """
    engine = make_engine(
        name, tree, tech, context=context, include_timing=include_timing
    )
    if not isinstance(engine, EditableEngine):
        raise ValueError(
            f"engine {name!r} is not editable; "
            f"editable engines: {', '.join(editable_engine_names())}"
        )
    return engine


def resolve_engine_factory(
    name: str, tech: Technology, *, context: Optional[EvalContext] = None
) -> Callable[[RoutingTree], TimingEngine]:
    """A per-tree engine factory for consumers that evaluate many trees
    (e.g. ``synthesize_topology``), with the name validated eagerly."""
    if name not in _BUILDERS:
        raise ValueError(
            f"unknown engine {name!r}; available: {', '.join(engine_names())}"
        )

    def factory(tree: RoutingTree) -> TimingEngine:
        return make_engine(name, tree, tech, context=context)

    return factory
