"""repro — reproduction of Lillis & Cheng, *Timing Optimization for
Multisource Nets: Characterization and Optimal Repeater Insertion*
(DAC 1997 / IEEE TCAD 18(3), 1999).

The package implements the paper's three contributions and every substrate
its experiments rely on:

* the **augmented RC-diameter (ARD)** performance measure and its
  linear-time computation under the Elmore model (:func:`repro.ard`);
* **optimal repeater insertion** for multisource routing topologies via
  dynamic programming over piece-wise linear functions of the external
  capacitance (:func:`repro.insert_repeaters`), including the subsumed
  discrete **driver-sizing** problem;
* the supporting machinery: PWL primitives, minimal-functional-subset
  pruning, Elmore engines, Steiner topology generation, random workloads,
  baselines, and the Sec. VI experiment harness.

Quickstart::

    from repro import (ard, insert_repeaters, paper_instance,
                       paper_technology, repeater_insertion_options)

    tree = paper_instance(seed=0, n_pins=10)
    tech = paper_technology()
    print(f"unbuffered RC-diameter: {ard(tree, tech).value:.0f} ps")
    suite = insert_repeaters(tree, tech, repeater_insertion_options())
    for cost, diameter in suite.tradeoff():
        print(f"cost {cost:5.1f} -> diameter {diameter:8.1f} ps")
"""

from .analysis import (
    Table,
    exhaustive_frontier,
    minima_2d,
    minima_3d,
    render_tree,
    run_instance,
)
from .baselines import greedy_insertion, van_ginneken
from .core import (
    ARDResult,
    DriverOption,
    IntervalSet,
    MSRIOptions,
    MSRIResult,
    PWL,
    RootSolution,
    Solution,
    ard,
    compute_ard,
    insert_repeaters,
    make_driver_options,
)
from .netgen import (
    NetSpec,
    build_net,
    driver_sizing_options,
    paper_driver_options,
    paper_instance,
    paper_repeater_library,
    paper_technology,
    random_net,
    random_points,
    repeater_insertion_options,
)
from .rctree import (
    ElmoreAnalyzer,
    EvalContext,
    FlatARDEngine,
    RoutingTree,
    SlewAnalyzer,
    SlewModel,
    TimingEngine,
    TreeBuilder,
)
from .sim import SimulationEngine, simulate_all, simulate_transaction, simulated_ard
from .steiner import add_insertion_points, build_steiner_topology
from .tech import (
    DEFAULT_BUFFER,
    DEFAULT_TECHNOLOGY,
    NEVER,
    Buffer,
    Repeater,
    RepeaterLibrary,
    Technology,
    Terminal,
    default_repeater_library,
    scaled_library,
)

__version__ = "2.0.0"

__all__ = [
    "ard",
    "compute_ard",
    "ARDResult",
    "insert_repeaters",
    "MSRIOptions",
    "MSRIResult",
    "RootSolution",
    "Solution",
    "PWL",
    "IntervalSet",
    "DriverOption",
    "make_driver_options",
    "ElmoreAnalyzer",
    "EvalContext",
    "FlatARDEngine",
    "TimingEngine",
    "SlewAnalyzer",
    "SlewModel",
    "SimulationEngine",
    "simulate_all",
    "simulate_transaction",
    "simulated_ard",
    "RoutingTree",
    "TreeBuilder",
    "add_insertion_points",
    "build_steiner_topology",
    "Technology",
    "Terminal",
    "Buffer",
    "Repeater",
    "RepeaterLibrary",
    "NEVER",
    "DEFAULT_BUFFER",
    "DEFAULT_TECHNOLOGY",
    "default_repeater_library",
    "scaled_library",
    "NetSpec",
    "build_net",
    "random_net",
    "random_points",
    "paper_instance",
    "paper_technology",
    "paper_repeater_library",
    "paper_driver_options",
    "repeater_insertion_options",
    "driver_sizing_options",
    "van_ginneken",
    "greedy_insertion",
    "exhaustive_frontier",
    "minima_2d",
    "minima_3d",
    "render_tree",
    "run_instance",
    "Table",
    "__version__",
]
