"""Linear-time computation of the augmented RC-diameter (paper Sec. III).

The ARD of a topology ``T`` is

```
ARD(T) = max over sources u, sinks v (u != v) of alpha(u) + PD(u, v) + beta(v)
```

Naively this takes one single-source Elmore pass per source — O(n^2).  The
paper's Fig. 2 algorithm achieves O(n): after the two capacitance passes
(Eqs. 1–2, done by :class:`~repro.rctree.elmore.ElmoreAnalyzer`), one
depth-first traversal computes, for every subtree ``T_v``:

* ``arrival``  (the paper's *a(v)*) — the maximum augmented arrival time at
  ``v`` over sources inside ``T_v``, measured on the parent side of any
  repeater at ``v``;
* ``required`` (the paper's *d(v)*) — the maximum augmented delay from ``v``
  down to sinks inside ``T_v``;
* ``diameter`` (the paper's *z(v)*) — the maximum augmented source-to-sink
  delay for pairs wholly inside ``T_v``.

At a branch, paths crossing the branch combine the best upward arrival from
one child with the best downward required time of a *different* child; a
top-two scan keeps that O(children).  At the root (a terminal), the root's
own source/sink roles join in and ``ARD(T) = z(root)``.

The implementation also tracks the arg-max terminals, so callers get the
*critical source/sink pair* for free — the quantity the paper's Fig. 11
annotates on its example solutions.

The DFS combine step itself lives in :mod:`repro.rctree.incremental` as an
algebra over *linear records* (candidates parameterized by the subtree's
external load).  The editable :class:`~repro.rctree.flat.FlatARDEngine`
ports that combine step to flat columns and re-runs it over dirty root
paths, bit-identically to this full pass.  This module evaluates the
records at the analyzer's Eq. 2 loads to materialize the classic per-node
scalar ``timing`` table.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..check import contracts
from ..obs import core as obs
from ..rctree.elmore import ElmoreAnalyzer
from ..rctree.engine import ARDResult, EvalContext, SubtreeTiming
from ..rctree.incremental import (
    EvalState,
    build_records,
    finish_root,
    timing_from_record,
)
from ..rctree.topology import RoutingTree
from ..tech.parameters import Technology
from ..tech.terminals import NEVER

__all__ = ["ARDResult", "SubtreeTiming", "compute_ard", "ard"]

# Nodes visited by the Fig. 2 record pass (naming contract:
# docs/OBSERVABILITY.md).  Linear growth per full pass is the paper's O(n)
# claim made observable.
_OBS_RECORD_PASS_NODES = obs.Counter("ard.record_pass.nodes")


def compute_ard(analyzer: ElmoreAnalyzer) -> ARDResult:
    """ARD(T) for the analyzer's tree and evaluation context — O(n).

    Runs the shared record algebra once bottom-up, then evaluates each
    node's record at its actual external load (the analyzer's Eq. 2 value)
    to populate the per-subtree ``timing`` table.
    """
    tree = analyzer.tree
    with obs.trace("ard.full_pass", nodes=len(tree)):
        if obs.enabled():
            _OBS_RECORD_PASS_NODES.add(len(tree))
        state = EvalState(tree, analyzer.technology, analyzer.context)
        records = build_records(state)

        timing: Dict[int, SubtreeTiming] = {}
        for v in tree.dfs_postorder():
            if v != tree.root:
                timing[v] = timing_from_record(records[v], analyzer.upstream_cap(v))

        best, src, snk = finish_root(state, records)
        timing[tree.root] = SubtreeTiming(NEVER, None, NEVER, None, best, (src, snk))
        result = ARDResult(best, src, snk, timing)
    if contracts.contracts_enabled():
        contracts.verify_ard_consistency(result, analyzer)
    return result


def ard(
    tree: RoutingTree,
    tech: Technology,
    *,
    context: Optional[EvalContext] = None,
) -> ARDResult:
    """Convenience wrapper building the analyzer and running Fig. 2.

    All evaluation knobs travel in ``context=EvalContext(...)``; the
    pre-context per-knob arguments (``assignment`` and friends) were
    removed at v2.0 and now raise :class:`TypeError`.
    """
    return compute_ard(ElmoreAnalyzer(tree, tech, context=context))
