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
    compile_net,
    evaluate_batch,
)
from .registry import make_editable_engine
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
    "compile_net",
    "evaluate_batch",
    "make_editable_engine",
    "SlewAnalyzer",
    "SlewModel",
    "Node",
    "NodeKind",
    "RoutingTree",
]
