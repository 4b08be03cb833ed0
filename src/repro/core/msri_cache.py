"""Subtree-front memoization for the MSRI dynamic program.

The bottom-up DP of :func:`repro.core.msri.insert_repeaters` computes, for
every vertex ``v``, a pruned candidate front for the subtree ``T_v``.  That
front is a *pure function* of the subtree's content: its topology, terminal
parameters, edge lengths and width factors, the technology constants, the
:class:`~repro.core.msri.MSRIOptions` knobs, and the global domain bound
``c_max`` (which enters every solution's ``c_E`` domain).  Nothing outside
``T_v`` influences it — the outside world is abstracted into the symbolic
external capacitance.  So fronts can be cached by content hash and reused
across invocations, across edits, and across *different* trees that share
subtrees (docs/ALGORITHMS.md §13 gives the soundness argument, including
why fresh ``uid`` tie-breaks preserve value-bit-identity).

This module provides the three layers the cache needs:

* **signatures** — :func:`subtree_signatures` composes one blake2b digest
  per vertex bottom-up in O(n) total: floats enter as raw IEEE-754 bytes,
  names never enter (they never enter the arithmetic);
  :func:`options_fingerprint` digests the technology constants and every
  optimizer knob; :func:`front_key` combines both with ``c_max``, and
  :func:`root_key` does the same for a whole net's root suite under its
  own hash personalization.
* **portable fronts** — :func:`pack_front` / :func:`unpack_front` convert a
  pruned front to and from a tree-independent record: scalars, domain
  interval pairs, PWL segment quadruples, and trace placements keyed by
  *position in the subtree preorder* rather than node index, so a front
  cached under one tree rebuilds with correctly remapped indices under any
  tree with the same subtree signature.  :func:`pack_root` /
  :func:`unpack_root` do the same for the root's ``(cost, ARD)`` suite.
* **the LRU** — :class:`MSRICache`, with ``msri.cache.*`` obs counters
  exposing its economics.

The cache stores packed records (immutable tuples of floats and frozen
dataclasses), never live :class:`~repro.core.solution.Solution` objects:
solutions carry process-local ``uid`` tie-breaks and shared ``Trace``
graphs, neither of which may leak between runs.
"""

from __future__ import annotations

import hashlib
import threading
from array import array
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..obs import core as obs
from ..rctree.topology import NodeKind, RoutingTree
from ..tech.parameters import Technology
from .intervals import IntervalSet
from .msri import MSRIOptions
from .pwl import PWL
from .solution import Placement, RootSolution, Solution, Trace, _solution

__all__ = [
    "MSRICache",
    "options_fingerprint",
    "subtree_signatures",
    "front_key",
    "root_key",
    "pack_front",
    "unpack_front",
    "pack_root",
    "unpack_root",
]

# Observability metrics (naming contract: docs/OBSERVABILITY.md).  All are
# free while REPRO_OBS is off.
_OBS_HITS = obs.Counter("msri.cache.hits")
_OBS_MISSES = obs.Counter("msri.cache.misses")
_OBS_STORES = obs.Counter("msri.cache.stores")
_OBS_EVICTIONS = obs.Counter("msri.cache.evictions")

#: Node-kind codes of the subtree signatures.
_KIND_CODE = {NodeKind.TERMINAL: 0, NodeKind.STEINER: 1, NodeKind.INSERTION: 2}

#: One packed solution: ``(cost, cap, q, parity, domain, arr, diam,
#: placements)`` with ``domain`` the tuple of its ``Interval`` pairs, ``arr``
#: / ``diam`` either None or the tuple of their ``Segment`` quadruples
#: (both immutable tuples, shared rather than copied), and ``placements`` a
#: tuple of ``(preorder_position, what)`` pairs in the trace's collect()
#: order.
PackedSolution = Tuple

#: A packed root suite: ``(width, ((cost, ard, placements), ...))`` with
#: ``width`` the root child's front width and ``placements`` keyed by
#: whole-tree preorder position, as in :data:`PackedSolution`.
PackedRoot = Tuple


def options_fingerprint(tech: Technology, options: MSRIOptions) -> bytes:
    """Digest of everything that parameterizes the DP besides the tree.

    Covers the wire constants, every pruning knob, and the full electrical
    content of the repeater library, driver options, and wire library —
    in their *offered order*, because candidate generation order feeds the
    deterministic tie-breaks.  Names are excluded (they never enter the
    arithmetic).
    """
    ints: List[int] = [
        1 if options.use_divide_and_conquer else 0,
        1 if options.prefilter else 0,
        -1 if options.max_front_width is None else options.max_front_width,
        -1 if options.max_pwl_segments is None else options.max_pwl_segments,
        1 if options.lossy else 0,
        1 if options.quantize_bound else 0,
        0 if options.spec is None else 1,
    ]
    floats: List[float] = [
        tech.unit_resistance,
        tech.unit_capacitance,
        0.0 if options.spec is None else options.spec,
    ]
    ints.append(-2)  # section separator: knobs / repeater library
    if options.library is not None:
        for rep in options.library.oriented_options():
            ints.append(1 if rep.is_inverting else 0)
            floats.extend(
                (rep.cost, rep.c_a, rep.c_b, rep.d_ab, rep.r_ab, rep.d_ba, rep.r_ba)
            )
    ints.append(-3)  # section separator: repeaters / driver options
    if options.driver_options is not None:
        for opt in options.driver_options:
            floats.extend(
                (
                    opt.cost,
                    opt.net_capacitance,
                    opt.driver_resistance,
                    opt.driver_intrinsic,
                    opt.arrival_penalty,
                    opt.sink_delay_extra,
                )
            )
    ints.append(-4)  # section separator: drivers / wire library
    if options.wire_library is not None:
        for wc in options.wire_library:
            floats.extend((wc.width, wc.cost_per_um))
    h = hashlib.blake2b(digest_size=16)
    h.update(array("q", ints).tobytes())
    h.update(array("d", floats).tobytes())
    return h.digest()


def subtree_signatures(
    tree: RoutingTree, widths: Optional[Dict[int, float]] = None
) -> List[bytes]:
    """One content digest per vertex, composed bottom-up in O(n) total.

    ``sig[v]`` covers the subtree *at* ``v`` — its kind, terminal
    parameters, and for every child the connecting edge's length and width
    factor plus the child's own signature — but **not** the edge from ``v``
    to its parent: a front describes the subtree before the Fig. 10 wire
    augmentation, which the parent's construction applies.  Two vertices
    share a signature exactly when they pose the bitwise-same subproblem
    (up to the global ``c_max``, which :func:`front_key` adds).
    """
    widths = widths or {}
    n = len(tree)
    sigs: List[bytes] = [b""] * n
    for v in tree.dfs_postorder():
        node = tree.node(v)
        h = hashlib.blake2b(digest_size=16)
        ints = [_KIND_CODE[node.kind]]
        floats: List[float] = []
        term = node.terminal
        if term is not None:  # presence is implied by the kind code
            floats.extend(
                (
                    term.arrival_time,
                    term.downstream_delay,
                    term.capacitance,
                    term.resistance,
                    term.intrinsic_delay,
                )
            )
        h.update(array("q", ints).tobytes())
        h.update(array("d", floats).tobytes())
        for u in tree.children(v):
            h.update(
                array(
                    "d", (tree.edge_length(u), widths.get(u, 1.0))
                ).tobytes()
            )
            h.update(sigs[u])
        sigs[v] = h.digest()
    return sigs


def front_key(signature: bytes, fingerprint: bytes, c_max: float) -> bytes:
    """The cache key of one subtree front.

    ``c_max`` is whole-tree-global (it bounds the ``c_E`` domain of every
    solution), so it must be part of the key even though it is not subtree
    content; ``MSRIOptions.quantize_bound`` coarsens it so trees that
    differ slightly still share keys.
    """
    return _key_digest(b"", signature, fingerprint, c_max)


def root_key(signature: bytes, fingerprint: bytes, c_max: float) -> bytes:
    """The cache key of a net's root suite, given the root's signature.

    Hashed like :func:`front_key` but under its own blake2b
    personalization, so root and front keys are separate hash domains:
    a root record cannot answer a front lookup, nor the reverse.
    """
    return _key_digest(b"msri.root", signature, fingerprint, c_max)


def _key_digest(
    person: bytes, signature: bytes, fingerprint: bytes, c_max: float
) -> bytes:
    h = hashlib.blake2b(digest_size=16, person=person)
    h.update(signature)
    h.update(fingerprint)
    h.update(array("d", (c_max,)).tobytes())
    return h.digest()


# -- portable front records ----------------------------------------------------


def _subtree_preorder(tree: RoutingTree, v: int) -> List[int]:
    """Node indices of the subtree at ``v`` in preorder."""
    out: List[int] = []
    stack = [v]
    while stack:
        x = stack.pop()
        out.append(x)
        stack.extend(reversed(tree.children(x)))
    return out


def _preorder_positions(tree: RoutingTree, v: int) -> Dict[int, int]:
    return {node: i for i, node in enumerate(_subtree_preorder(tree, v))}


def _pack_trace(positions: Dict[int, int], trace: Trace) -> Tuple:
    """A trace's placements as ``(position, what)``, in collect() order."""
    return tuple((positions[p.node], p.what) for p in trace.collect())


def _unpack_trace(order: List[int], placements: Tuple) -> Trace:
    """Rebuild a packed trace as a linear chain onto the nodes ``order``
    lists; extending in reversed pack order makes the rebuilt trace's
    ``collect()`` return the original order."""
    trace = Trace()
    for position, what in reversed(placements):
        trace = trace.extended(Placement(order[position], what))
    return trace


def pack_front(
    tree: RoutingTree, v: int, front: List[Solution]
) -> Tuple[PackedSolution, ...]:
    """Convert a pruned front at ``v`` into a tree-independent record.

    Trace placements are stored as ``(position, what)`` with ``position``
    the placed node's index *in the subtree preorder of* ``v`` — the
    canonical coordinate any tree with the same subtree signature shares.
    Placements keep their ``Trace.collect()`` order so that the rebuilt
    assignment dict resolves duplicate-node entries (a wire class and a
    repeater recorded against the same node) to the same winner.
    """
    positions = _preorder_positions(tree, v)
    records: List[PackedSolution] = []
    for s in front:
        records.append(
            (
                s.cost,
                s.cap,
                s.q,
                s.parity,
                s.domain.intervals,
                None if s.arr is None else s.arr.segments,
                None if s.diam is None else s.diam.segments,
                _pack_trace(positions, s.trace),
            )
        )
    return tuple(records)


def unpack_front(
    tree: RoutingTree, v: int, records: Tuple[PackedSolution, ...]
) -> List[Solution]:
    """Rebuild a packed front as live solutions rooted at ``v`` of ``tree``.

    Node positions remap onto this tree's subtree preorder; traces rebuild
    as linear chains extended in *reversed* collect order, so the rebuilt
    ``Trace.collect()`` returns the original order.  Solutions mint fresh
    ``uid`` values in record order — safe because a reused front is never
    re-pruned, and every prune site compares only candidates freshly
    constructed at that site, whose relative uid order matches a cold
    run's generation order (docs/ALGORITHMS.md §13).
    """
    order = _subtree_preorder(tree, v)
    out: List[Solution] = []
    for cost, cap, q, parity, dom, arr, diam, placements in records:
        out.append(
            _solution(
                cost,
                cap,
                q,
                None if arr is None else PWL(arr),
                None if diam is None else PWL(diam),
                IntervalSet(dom),
                _unpack_trace(order, placements),
                parity,
            )
        )
    return out


def pack_root(
    tree: RoutingTree, width: int, roots: List[RootSolution]
) -> PackedRoot:
    """Convert a root suite into a tree-independent record.

    ``width`` is the root child's front width, kept so a hit reports the
    same stats as a root-child front hit.  Placements are keyed by
    whole-tree preorder position, as :func:`pack_front` keys them for the
    subtree at the root.
    """
    positions = _preorder_positions(tree, tree.root)
    return width, tuple(
        (s.cost, s.ard, _pack_trace(positions, s.trace)) for s in roots
    )


def unpack_root(
    tree: RoutingTree, record: PackedRoot
) -> Tuple[int, List[RootSolution]]:
    """Rebuild a packed root suite as ``(width, root solutions of tree)``."""
    width, suite = record
    order = _subtree_preorder(tree, tree.root)
    return width, [
        RootSolution(cost=cost, ard=ard, trace=_unpack_trace(order, placements))
        for cost, ard, placements in suite
    ]


# -- the LRU -------------------------------------------------------------------


class MSRICache:
    """An LRU of packed subtree fronts and root suites keyed by content hash.

    Shared across :class:`~repro.core.msri_engine.IncrementalMSRI`
    instances (topology search scoring hundreds of sibling candidates, a
    campaign worker sweeping spacings, the serve daemon's ``optimize`` op).
    Stored records are immutable; ``get`` returns them as-is and callers
    rebuild live solutions via :func:`unpack_front` / :func:`unpack_root`.
    Thread-safe: the
    serve daemon evaluates concurrent sessions on an asyncio thread pool,
    and the LRU reorder/evict sequence is not atomic on its own.
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize <= 0:
            raise ValueError(f"cache maxsize must be positive, got {maxsize}")
        self._maxsize = maxsize
        self._store: "OrderedDict[bytes, Tuple[PackedSolution, ...]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: bytes) -> Optional[Tuple[PackedSolution, ...]]:
        """The packed record for ``key``, or None (counted as a miss)."""
        with self._lock:
            records = self._store.get(key)
            if records is not None:
                self._store.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        if records is not None:
            if obs.enabled():
                _OBS_HITS.add()
            return records
        if obs.enabled():
            _OBS_MISSES.add()
        return None

    def put(self, key: bytes, records: Tuple[PackedSolution, ...]) -> None:
        """Store a packed record, evicting least-recently-used overflow."""
        evicted = 0
        with self._lock:
            self._store[key] = records
            self._store.move_to_end(key)
            self.stores += 1
            while len(self._store) > self._maxsize:
                self._store.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if obs.enabled():
            _OBS_STORES.add()
            if evicted:
                _OBS_EVICTIONS.add(evicted)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (for serve ``stats`` frames and tests)."""
        with self._lock:
            return {
                "size": len(self._store),
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
            }
