"""Routing-tree data structures and delay engines (Elmore, slew, flat)."""

from .builder import TreeBuilder, manhattan
from .elmore import ElmoreAnalyzer
from .engine import (
    ARDResult,
    EditableEngine,
    EvalContext,
    SubtreeTiming,
    TimingEngine,
)
from .flat import (
    FlatARDEngine,
    FlatNet,
    FlatNetCache,
    canonical_net_key,
    compile_net,
    evaluate_batch,
)
from .registry import (
    editable_engine_names,
    engine_names,
    make_editable_engine,
    make_engine,
    resolve_engine_factory,
)
from .slew import SlewAnalyzer, SlewModel
from .topology import Node, NodeKind, RoutingTree

__all__ = [
    "TreeBuilder",
    "manhattan",
    "ARDResult",
    "EvalContext",
    "SubtreeTiming",
    "TimingEngine",
    "EditableEngine",
    "ElmoreAnalyzer",
    "FlatARDEngine",
    "FlatNet",
    "FlatNetCache",
    "canonical_net_key",
    "compile_net",
    "evaluate_batch",
    "engine_names",
    "editable_engine_names",
    "make_engine",
    "make_editable_engine",
    "resolve_engine_factory",
    "SlewAnalyzer",
    "SlewModel",
    "Node",
    "NodeKind",
    "RoutingTree",
]
