"""Outside-in per-layer attribution for the ledger benchmark.

The benchmark does not edit the program.  It wraps the functions that sit
at each layer boundary, wherever a module binds them, and records for
each layer its *self* time: the time spent inside the layer's functions
minus the part covered by other wrapped layers they call.  The
same wrappers count work at the boundary (candidates in and out of a
pruning stage, cache hits, DP vertices).

Every entry of the layer map must resolve: when the program renames or
removes a listed function, ``install`` raises ``LayerMapError`` rather
than let that layer read 0 and its time move silently into its caller's.
A restructure has to update the map.

Each wrapped call costs a little time of its own, which lands in the
caller's self time.  ``per_call_overhead`` measures that cost so the
benchmark can report it next to the layers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

CountFn = Callable[[Dict[str, float], tuple, dict, object], None]

#: (module, attribute, layer) for every plain function the tracer wraps.
FUNCTION_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.netgen.random_nets", "random_net", "net_build"),
    ("repro.io.serialize", "tree_from_dict", "net_build"),
    ("repro.steiner.topology_search", "tree_from_terminal_edges", "net_build"),
    ("repro.core.msri", "insert_repeaters", "dp_loop"),
    ("repro.core.msri_engine", "insert_repeaters_cached", "dp_loop"),
    ("repro.core.msri", "_domain_bound", "c_max"),
    ("repro.core.solution", "leaf_solution", "leaf"),
    ("repro.core.solution", "augment_wire", "augment"),
    ("repro.core.solution", "join", "join"),
    ("repro.core.solution", "apply_repeater", "repeater"),
    ("repro.core.prefilter", "prefilter_front", "prefilter"),
    ("repro.core.mfs", "mfs", "mfs"),
    ("repro.core.mfs", "mfs_pairwise", "mfs"),
    ("repro.core.msri", "_enforce_caps", "caps"),
    ("repro.core.msri", "_root_set", "root"),
    ("repro.core.msri_cache", "subtree_signatures", "cache"),
    ("repro.core.msri_cache", "options_fingerprint", "cache"),
    ("repro.core.msri_cache", "front_key", "cache"),
    ("repro.core.msri_cache", "pack_front", "cache"),
    ("repro.core.msri_cache", "unpack_front", "cache"),
    ("repro.steiner.topology_search", "synthesize_topology", "search"),
    ("repro.analysis.campaign", "run_campaign", "campaign"),
    ("repro.analysis.experiments", "run_instance", "campaign"),
    ("repro.io.serialize", "decode_frame", "codec"),
    ("repro.io.serialize", "encode_frame", "codec"),
    ("repro.serve.session", "apply_edit", "edit"),
)

#: (module, class, method, layer) for methods wrapped on their class.
METHOD_LAYERS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.core.msri", "MSRIResult", "min_cost_meeting", "select"),
    ("repro.core.msri", "MSRIResult", "min_ard", "select"),
    ("repro.core.msri", "MSRIResult", "min_cost", "select"),
    ("repro.core.msri", "MSRIResult", "tradeoff", "select"),
    ("repro.core.msri", "MSRIResult", "with_repeater_count", "select"),
    ("repro.core.msri_cache", "MSRICache", "get", "cache"),
    ("repro.core.msri_cache", "MSRICache", "put", "cache"),
    ("repro.serve.session", "Session", "evaluate", "engine"),
)


def _count_built(acc, args, kwargs, result) -> None:
    if result is not None:
        acc["candidates.built"] += 1


def _count_stage(stage: str) -> CountFn:
    def count(acc, args, kwargs, result) -> None:
        acc[stage + ".in"] += len(args[0])
        acc[stage + ".out"] += len(result)

    return count


def _count_solve(acc, args, kwargs, result) -> None:
    stats = result.stats
    tree = args[0] if args else kwargs["tree"]
    options = args[2] if len(args) > 2 else kwargs["options"]
    acc["dp.solves"] += 1
    acc["dp.nodes"] += stats.nodes_processed
    acc["dp.generated"] += stats.solutions_generated
    acc["dp.kept"] += stats.solutions_after_pruning
    acc["dp.reused"] += stats.nodes_reused
    # Li-Shi bound shape: at most b*n candidates per vertex, b the
    # repeater choices per site (oriented options plus "none"), n the
    # vertices; the DP's per-node mean is reported against it
    library = getattr(options, "library", None)
    b = 1 + (len(library.oriented_options()) if library is not None else 0)
    acc["dp.bn_weighted_nodes"] += stats.nodes_processed * b * len(tree)


def _count_cache_get(acc, args, kwargs, result) -> None:
    acc["cache.hits" if result is not None else "cache.misses"] += 1


def _count_search(acc, args, kwargs, result) -> None:
    acc["memo.hits"] += result.memo_hits
    acc["memo.scored"] += result.evaluations


COUNTERS: Dict[str, CountFn] = {
    "leaf_solution": _count_built,
    "augment_wire": _count_built,
    "join": _count_built,
    "apply_repeater": _count_built,
    "prefilter_front": _count_stage("prefilter"),
    "mfs": _count_stage("mfs"),
    "mfs_pairwise": _count_stage("mfs"),
    "insert_repeaters": _count_solve,
    "insert_repeaters_cached": _count_solve,
    "get": _count_cache_get,
    "synthesize_topology": _count_search,
}


class LayerMapError(RuntimeError):
    """A layer-map entry names a module, class or function that is gone."""


def _lookup(module_name: str, attr: str):
    try:
        module = importlib.import_module(module_name)
    except ModuleNotFoundError as exc:
        raise LayerMapError(f"layer map: no module {module_name}") from exc
    value = getattr(module, attr, None)
    if value is None:
        raise LayerMapError(f"layer map: no {module_name}.{attr}")
    return value


def _own_attr(cls, attr: str):
    value = cls.__dict__.get(attr)
    if value is None:
        raise LayerMapError(f"layer map: no method {cls.__qualname__}.{attr}")
    return value


class Tracer:
    """Wraps the layer functions while installed; sums per-thread records."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._records: List[Dict[str, float]] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- per-thread state ----------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "acc"):
            local.acc = defaultdict(float)
            local.stack = []  # one [child_seconds] cell per open span
            local.active = set()
            with self._lock:
                self._records.append(local.acc)
        return local

    def totals(self) -> Dict[str, float]:
        """Every record summed over all threads that ran wrapped code."""
        out: Dict[str, float] = defaultdict(float)
        with self._lock:
            for acc in self._records:
                for key, value in list(acc.items()):
                    out[key] += value
        return out

    # -- wrapping ------------------------------------------------------------

    def _timed(self, layer: str, fn, count: Optional[CountFn]):
        state = self._state
        key = layer + ".s"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            local = state()
            if layer in local.active:  # recursion inside one layer
                return fn(*args, **kwargs)
            stack = local.stack
            cell = [0.0]
            stack.append(cell)
            local.active.add(layer)
            local.acc["calls"] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                local.active.discard(layer)
                local.acc[key] += elapsed - cell[0]
                if stack:
                    stack[-1][0] += elapsed
            if count is not None:
                count(local.acc, args, kwargs, result)
            return result

        return timed

    def _set(self, owner, attr: str, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer-map entry; raise ``LayerMapError`` if one is gone.

        Everything is resolved before anything is wrapped, so a failure
        leaves the program untouched.
        """
        functions = [
            (_lookup(module_name, attr), attr, layer)
            for module_name, attr, layer in FUNCTION_LAYERS
        ]
        methods = []
        for module_name, cls_name, attr, layer in METHOD_LAYERS:
            cls = _lookup(module_name, cls_name)
            methods.append((cls, attr, layer, _own_attr(cls, attr)))

        for original, attr, layer in functions:
            wrapped = self._timed(layer, original, COUNTERS.get(attr))
            # every module-level binding, so ``from x import f`` copies
            # (the benchmark's own included) call the wrapper too
            for module in list(sys.modules.values()):
                for name, value in list(getattr(module, "__dict__", {}).items()):
                    if value is original:
                        self._set(module, name, original, wrapped)
        for cls, attr, layer, original in methods:
            wrapped = self._timed(layer, original, COUNTERS.get(attr))
            self._set(cls, attr, original, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def per_call_overhead(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one wrapped call adds over a bare call (best of ``repeats``)."""

    def bare():
        return None

    wrapped = Tracer()._timed("overhead", bare, None)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            bare()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
