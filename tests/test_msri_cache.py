"""Tests for memoized/incremental MSRI (docs/ALGORITHMS.md §13).

The decisive check is differential: every cached or incrementally
re-solved result must be **bit-identical** to a cold
:func:`repro.core.msri.insert_repeaters` run — root (cost, ARD) suites,
chosen assignments, and per-node fronts — with the REPRO_CHECK contracts
active so the engine's own differential verification runs as well.
"""

import collections
import dataclasses

import numpy as np
import pytest

from repro.check import contracts
from repro.core import msri
from repro.core.msri import MSRIOptions, _domain_bound, insert_repeaters
from repro.core.msri_cache import (
    MSRICache,
    front_key,
    options_fingerprint,
    pack_front,
    root_key,
    subtree_signatures,
    unpack_front,
)
from repro.core.msri_engine import IncrementalMSRI, insert_repeaters_cached
from repro.netgen.workloads import (
    driver_sizing_options,
    paper_instance,
    repeater_insertion_options,
)
from repro.obs import core as obs
from repro.rctree import EvalContext
from repro.rctree.topology import RoutingTree
from repro.tech import Buffer, Repeater, RepeaterLibrary, Technology

from .conftest import random_topology, two_pin_net, y_net

TECH = Technology(unit_resistance=0.1, unit_capacitance=0.01, name="test")
REP = Repeater.from_buffer_pair(
    Buffer("b", intrinsic_delay=20.0, output_resistance=50.0, input_capacitance=0.25),
    name="rep",
)
BIG = Repeater.from_buffer_pair(Buffer("B", 20.0, 25.0, 0.5, cost=2.0), name="big")
LIB = RepeaterLibrary([REP])
MULTI_LIB = RepeaterLibrary([REP, BIG])
OPTS = MSRIOptions(library=LIB)


def root_suite(result):
    """The value-bearing content of a root suite: scalars + assignments."""
    return [(s.cost, s.ard, s.assignment()) for s in result.solutions]


def assert_identical(a, b):
    """Exact equality of two MSRI results in every value-bearing field."""
    assert root_suite(a) == root_suite(b)


class TestSubtreeSignatures:
    def test_names_do_not_enter(self):
        t = y_net()
        renamed = [
            n
            if n.terminal is None
            else dataclasses.replace(
                n, terminal=dataclasses.replace(n.terminal, name=f"x{n.index}")
            )
            for n in t.nodes
        ]
        t2 = type(t)(
            renamed,
            [t.parent(i) for i in range(len(t))],
            [t.edge_length(i) for i in range(len(t))],
        )
        assert subtree_signatures(t) == subtree_signatures(t2)

    def test_edge_length_changes_signature_on_root_path_only(self):
        t = random_topology(np.random.default_rng(0), n_terminals=5)
        child = [i for i in range(len(t)) if t.parent(i) is not None][-1]
        lengths = [t.edge_length(i) for i in range(len(t))]
        lengths[child] = lengths[child] + 1.0
        t2 = type(t)(t.nodes, [t.parent(i) for i in range(len(t))], lengths)
        s1, s2 = subtree_signatures(t), subtree_signatures(t2)
        path = set()
        v = t.parent(child)
        while v is not None:
            path.add(v)
            v = t.parent(v)
        for i in range(len(t)):
            if i in path:
                assert s1[i] != s2[i], f"root-path node {i} must change"
            else:
                # the edge above a node is the *parent's* content
                assert s1[i] == s2[i], f"off-path node {i} must not change"

    def test_terminal_params_enter(self):
        t = y_net()
        ti = [i for i in t.terminal_indices() if i != t.root][0]
        term = t.node(ti).terminal
        nodes = list(t.nodes)
        nodes[ti] = dataclasses.replace(
            nodes[ti],
            terminal=dataclasses.replace(term, capacitance=term.capacitance * 2),
        )
        t2 = type(t)(
            nodes,
            [t.parent(i) for i in range(len(t))],
            [t.edge_length(i) for i in range(len(t))],
        )
        assert subtree_signatures(t)[ti] != subtree_signatures(t2)[ti]

    def test_widths_enter_parent_signature(self):
        t = y_net()
        child = [i for i in range(len(t)) if t.parent(i) is not None][0]
        s1 = subtree_signatures(t)
        s2 = subtree_signatures(t, {child: 2.0})
        assert s1[t.parent(child)] != s2[t.parent(child)]
        assert s1[child] == s2[child]


class TestFingerprintAndKey:
    def test_options_knobs_enter(self):
        base = options_fingerprint(TECH, OPTS)
        assert base != options_fingerprint(TECH, MSRIOptions(library=MULTI_LIB))
        assert base != options_fingerprint(
            TECH, MSRIOptions(library=LIB, prefilter=False)
        )
        assert base != options_fingerprint(
            TECH, MSRIOptions(library=LIB, spec=100.0)
        )
        assert base != options_fingerprint(
            Technology(unit_resistance=0.2, unit_capacitance=0.01, name="t2"),
            OPTS,
        )

    def test_c_max_enters_key(self):
        sig = subtree_signatures(y_net())[1]
        fp = options_fingerprint(TECH, OPTS)
        assert front_key(sig, fp, 10.0) != front_key(sig, fp, 20.0)


class TestPackUnpack:
    def test_round_trip_values_and_assignments(self):
        t = two_pin_net(length=4000.0)
        c_max = _domain_bound(t, TECH, OPTS)
        # prime an engine to get real fronts
        eng = IncrementalMSRI(t, TECH, OPTS)
        eng.solve()
        (child,) = t.children(t.root)
        front = eng._fronts[child]
        rebuilt = unpack_front(t, child, pack_front(t, child, front))
        contracts.verify_front_values(rebuilt, front, context="round trip")
        # collect() order (duplicate-node dict winner) must survive
        for a, b in zip(front, rebuilt):
            assert [(p.node, p.what) for p in a.trace.collect()] == [
                (p.node, p.what) for p in b.trace.collect()
            ]

    def test_fresh_uids(self):
        t = two_pin_net(length=2000.0)
        eng = IncrementalMSRI(t, TECH, OPTS)
        eng.solve()
        (child,) = t.children(t.root)
        front = eng._fronts[child]
        rebuilt = unpack_front(t, child, pack_front(t, child, front))
        assert {s.uid for s in rebuilt}.isdisjoint({s.uid for s in front})


class TestMSRICacheLRU:
    def test_validation(self):
        with pytest.raises(ValueError):
            MSRICache(maxsize=0)

    def test_hit_miss_store_counters(self):
        cache = MSRICache(maxsize=4)
        assert cache.get(b"a") is None
        cache.put(b"a", ((1.0,),))
        assert cache.get(b"a") == ((1.0,),)
        assert cache.stats() == {
            "size": 1, "hits": 1, "misses": 1, "stores": 1, "evictions": 0,
        }

    def test_lru_eviction_order(self):
        cache = MSRICache(maxsize=2)
        cache.put(b"a", (1,))
        cache.put(b"b", (2,))
        cache.get(b"a")  # refresh a: b is now the LRU entry
        cache.put(b"c", (3,))
        assert cache.get(b"b") is None
        assert cache.get(b"a") == (1,)
        assert cache.get(b"c") == (3,)
        assert cache.evictions == 1

    def test_clear(self):
        cache = MSRICache()
        cache.put(b"a", (1,))
        cache.clear()
        assert len(cache) == 0 and cache.get(b"a") is None


class TestDifferentialSuite:
    """≥200 randomized nets: warm path bit-identical to cold, REPRO_CHECK on."""

    def test_200_net_cached_identity(self):
        cache = MSRICache(maxsize=16384)
        with contracts.checking():
            for seed in range(200):
                rng = np.random.default_rng(seed)
                t = random_topology(
                    rng,
                    n_terminals=int(rng.integers(3, 6)),
                    p_insertion=float(rng.uniform(0.3, 1.0)),
                )
                opts = (
                    MSRIOptions(library=LIB, quantize_bound=bool(seed % 2))
                    if seed % 3
                    else MSRIOptions(library=MULTI_LIB)
                )
                cold = insert_repeaters(t, TECH, opts)
                insert_repeaters_cached(t, TECH, opts, cache=cache)  # prime
                warm = insert_repeaters_cached(t, TECH, opts, cache=cache)
                assert_identical(warm, cold)
                assert warm.stats.cache_hits >= 1
                assert warm.stats.nodes_processed == 0
        assert cache.hits >= 200

    def test_front_values_per_node(self):
        """Cold vs cache-primed engines agree front-by-front, not just at root."""
        t = random_topology(np.random.default_rng(7), n_terminals=6)
        cache = MSRICache()
        with contracts.checking():
            a = IncrementalMSRI(t, TECH, OPTS, cache=cache)
            a.solve()
            b = IncrementalMSRI(t, TECH, OPTS, cache=cache)
            b.solve()
            for v in a._fronts:
                if v in b._fronts:
                    contracts.verify_front_values(
                        b._fronts[v], a._fronts[v], context=f"node {v}"
                    )


class TestIncrementalEdits:
    def test_set_terminal_recomputes_root_path_only(self):
        t = random_topology(np.random.default_rng(3), n_terminals=6)
        with contracts.checking():
            eng = IncrementalMSRI(t, TECH, OPTS)
            full = eng.solve().stats.nodes_processed
            ti = [i for i in t.terminal_indices() if i != t.root][0]
            term = t.node(ti).terminal
            eng.set_terminal(
                ti,
                dataclasses.replace(
                    term, downstream_delay=term.downstream_delay + 3.0
                ),
            )
            r = eng.solve()
            assert 0 < r.stats.nodes_processed < full
            assert_identical(r, insert_repeaters(eng.tree, TECH, OPTS))

    def test_capacitance_edit_flushes_without_quantize(self):
        t = random_topology(np.random.default_rng(4), n_terminals=5)
        eng = IncrementalMSRI(t, TECH, OPTS)
        full = eng.solve().stats.nodes_processed
        ti = [i for i in t.terminal_indices() if i != t.root][0]
        term = t.node(ti).terminal
        eng.set_terminal(
            ti, dataclasses.replace(term, capacitance=term.capacitance * 1.5)
        )
        # c_max moved: every retained front embeds the old bound
        assert eng.solve().stats.nodes_processed == full

    def test_capacitance_edit_retains_with_quantize(self):
        t = random_topology(np.random.default_rng(4), n_terminals=5)
        opts = MSRIOptions(library=LIB, quantize_bound=True)
        with contracts.checking():
            eng = IncrementalMSRI(t, TECH, opts)
            full = eng.solve().stats.nodes_processed
            ti = [i for i in t.terminal_indices() if i != t.root][0]
            term = t.node(ti).terminal
            eng.set_terminal(
                ti,
                dataclasses.replace(
                    term, capacitance=term.capacitance * 1.0001
                ),
            )
            r = eng.solve()
            assert r.stats.nodes_processed < full
            assert_identical(r, insert_repeaters(eng.tree, TECH, opts))

    def test_set_edge_length(self):
        t = random_topology(np.random.default_rng(5), n_terminals=6)
        with contracts.checking():
            eng = IncrementalMSRI(t, TECH, OPTS)
            eng.solve()
            ei = [i for i in range(len(t)) if t.parent(i) is not None][-1]
            eng.set_edge_length(ei, t.edge_length(ei) + 100.0)
            r = eng.solve()
            assert_identical(r, insert_repeaters(eng.tree, TECH, OPTS))

    def test_set_wire_width(self):
        t = random_topology(np.random.default_rng(6), n_terminals=5)
        with contracts.checking():
            eng = IncrementalMSRI(t, TECH, OPTS)
            eng.solve()
            ei = [i for i in range(len(t)) if t.parent(i) is not None][0]
            eng.set_wire_width(ei, 1.7)
            r = eng.solve()
            cold = insert_repeaters(
                eng.tree, TECH, OPTS, context=EvalContext(wire_widths={ei: 1.7})
            )
            assert_identical(r, cold)

    def test_edit_validation(self):
        t = y_net()
        eng = IncrementalMSRI(t, TECH, OPTS)
        steiner = t.steiner_indices()[0]
        term = t.node(t.root).terminal
        with pytest.raises(ValueError):
            eng.set_terminal(steiner, term)
        with pytest.raises(ValueError):
            eng.set_edge_length(t.root, 10.0)
        with pytest.raises(ValueError):
            eng.set_wire_width(t.root, 1.0)
        child = t.children(t.root)[0]
        with pytest.raises(ValueError):
            eng.set_wire_width(child, 0.0)
        with pytest.raises(ValueError):
            eng.set_edge_length(child, -1.0)

    def test_solve_tree_switches_nets(self):
        t1 = random_topology(np.random.default_rng(8), n_terminals=5)
        t2 = random_topology(np.random.default_rng(9), n_terminals=6)
        cache = MSRICache()
        with contracts.checking():
            eng = IncrementalMSRI(t1, TECH, OPTS, cache=cache)
            eng.solve()
            r2 = eng.solve_tree(t2)
            assert_identical(r2, insert_repeaters(t2, TECH, OPTS))
            # returning to an already-seen tree hits the cross-tree cache
            r1 = eng.solve_tree(t1)
            assert r1.stats.cache_hits >= 1
            assert_identical(r1, insert_repeaters(t1, TECH, OPTS))


class TestCacheSemantics:
    def test_lossy_bypasses_global_cache(self):
        t = random_topology(np.random.default_rng(10), n_terminals=6)
        opts = MSRIOptions(library=LIB, lossy=True, max_front_width=3)
        cache = MSRICache()
        a = insert_repeaters_cached(t, TECH, opts, cache=cache)
        b = insert_repeaters_cached(t, TECH, opts, cache=cache)
        assert cache.stats()["stores"] == 0 and cache.stats()["hits"] == 0
        # lossy runs are still deterministic, just uncached
        assert root_suite(a) == root_suite(b)

    def test_lossy_engine_still_retains_own_fronts(self):
        t = random_topology(np.random.default_rng(10), n_terminals=6)
        opts = MSRIOptions(library=LIB, lossy=True, max_front_width=3)
        eng = IncrementalMSRI(t, TECH, opts)
        eng.solve()
        assert eng.solve().stats.nodes_processed == 0  # dirty-path reuse

    def test_quantize_bound_is_power_of_two(self):
        t = y_net()
        plain = _domain_bound(t, TECH, OPTS)
        q = _domain_bound(t, TECH, MSRIOptions(library=LIB, quantize_bound=True))
        assert q >= plain
        m, e = np.frexp(q)
        assert m == 0.5  # exactly a power of two

    def test_quantized_cold_runs_self_consistent(self):
        t = random_topology(np.random.default_rng(11), n_terminals=5)
        opts = MSRIOptions(library=LIB, quantize_bound=True)
        assert root_suite(insert_repeaters(t, TECH, opts)) == root_suite(
            insert_repeaters(t, TECH, opts)
        )

    def test_stats_reuse_accounting(self):
        """Reused fronts never inflate generated/kept (conservation holds)."""
        t = random_topology(np.random.default_rng(12), n_terminals=6)
        cache = MSRICache()
        insert_repeaters_cached(t, TECH, OPTS, cache=cache)
        warm = insert_repeaters_cached(t, TECH, OPTS, cache=cache)
        assert warm.stats.solutions_generated == 0
        assert warm.stats.solutions_after_pruning == 0
        assert warm.stats.nodes_reused == len(t) - 1
        assert warm.stats.max_set_size >= 1  # reused widths still reported


def _dp_trace(solve):
    """Run ``solve`` traced; return its result and its DP observations."""
    obs.reset()
    with obs.observing():
        result = solve()
        snap = obs.snapshot(reset=True)
    points = [
        (p["attrs"]["node"], p["attrs"]["generated"], p["attrs"]["kept"],
         p["attrs"]["pruned"])
        for p in snap["points"]
        if p["name"] == "msri.node"
    ]
    counters = {
        k: v for k, v in snap["counters"].items()
        if k == "msri.nodes" or k.startswith("msri.solutions.")
    }
    width = snap["hists"].get("msri.front_width", [0, 0, 0, 0])[:2]
    runs = [s["attrs"] for s in snap["spans"] if s["name"] == "msri.run"]
    return result, points, counters, width, runs


class TestOneDriver:
    """Cold, cached and incremental solves run one DP loop and record alike."""

    def test_entry_points_record_the_same_dp(self):
        t = paper_instance(1, 5)
        opts = repeater_insertion_options()
        cold = _dp_trace(lambda: insert_repeaters(t, TECH, opts))
        cached = _dp_trace(
            lambda: insert_repeaters_cached(t, TECH, opts, cache=MSRICache())
        )
        engine = _dp_trace(lambda: IncrementalMSRI(t, TECH, opts).solve())
        result, points, counters, width, runs = cold
        assert len(points) == len(t) - 1
        assert counters["msri.nodes"] == len(points) == width[0]
        assert counters["msri.solutions.generated"] == (
            counters["msri.solutions.kept"] + counters["msri.solutions.pruned"]
        )
        for other in (cached, engine):
            assert_identical(other[0], result)
            assert other[1:4] == (points, counters, width)
            assert len(other[4]) == 1
            assert other[4][0]["compute"] == len(points)
            assert other[4][0]["reused"] == 0

    def test_warm_resolve_computes_nothing(self):
        t = paper_instance(1, 5)
        opts = repeater_insertion_options()
        cache = MSRICache()
        insert_repeaters_cached(t, TECH, opts, cache=cache)
        eng = IncrementalMSRI(t, TECH, opts)
        eng.solve()
        for solve in (
            lambda: insert_repeaters_cached(t, TECH, opts, cache=cache),
            eng.solve,
        ):
            # contracts off: their cold differential would be traced too
            with contracts.checking(False):
                result, points, counters, width, runs = _dp_trace(solve)
            assert result.stats.nodes_processed == 0
            assert result.stats.nodes_reused == len(t) - 1
            assert points == [] and width[0] == 0
            assert counters.get("msri.nodes", 0) == 0
            (run,) = runs
            assert run["compute"] == 0 and run["reused"] == len(t) - 1


def _with_terminal(tree, v, **changes):
    """``tree`` with the parameters of terminal ``v`` replaced."""
    nodes = list(tree.nodes)
    nodes[v] = dataclasses.replace(
        nodes[v], terminal=dataclasses.replace(nodes[v].terminal, **changes)
    )
    return RoutingTree(
        nodes,
        [tree.parent(i) for i in range(len(tree))],
        [tree.edge_length(i) for i in range(len(tree))],
    )


def _driver_edited(tree):
    """``tree`` with a weaker root driver (1.5x its output resistance).

    Only the root's signature changes, and ``c_max`` (which reads pin
    capacitances, not resistances) keeps its bits, so every stored
    subtree front of ``tree`` stays valid for it.
    """
    term = tree.node(tree.root).terminal
    return _with_terminal(tree, tree.root, resistance=term.resistance * 1.5)


def _root_path(tree, v):
    """``v`` and its ancestors."""
    path = set()
    while v is not None:
        path.add(v)
        v = tree.parent(v)
    return path


def _differential_nets(count):
    """The randomized nets and options of the 200-net differential."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        t = random_topology(
            rng,
            n_terminals=int(rng.integers(3, 6)),
            p_insertion=float(rng.uniform(0.3, 1.0)),
        )
        opts = (
            MSRIOptions(library=LIB, quantize_bound=bool(seed % 2))
            if seed % 3
            else MSRIOptions(library=MULTI_LIB)
        )
        yield t, opts


class TestFrontHitsFeedTheDP:
    """Stored subtree fronts answer a *different* net's solve.

    A repeated solve is answered by its root suite alone.  These nets
    differ from the primed one in their root driver or in one sink, so
    the root suite misses and stored branch-point fronts are unpacked
    into the fold: joined, augmented over the wires above them and
    evaluated at the root.  REPRO_CHECK is on, so every solve that
    reuses a front is also re-run cold by the engine's own contract.
    """

    def test_200_net_driver_edit_identity(self):
        cache = MSRICache(maxsize=16384)
        computed_above_hit = collections.Counter()
        with contracts.checking():
            for t, opts in _differential_nets(200):
                edited = _driver_edited(t)
                insert_repeaters_cached(t, TECH, opts, cache=cache)  # prime
                warm = insert_repeaters_cached(edited, TECH, opts, cache=cache)
                cold = insert_repeaters(edited, TECH, opts)
                assert_identical(warm, cold)
                assert warm.stats.cache_hits >= 1
                assert warm.stats.nodes_processed < cold.stats.nodes_processed
                computed_above_hit[warm.stats.nodes_processed > 0] += 1
        # both shapes occur: a branch-point root child whose unpacked
        # front alone feeds the root, and an insertion chain computed
        # from an unpacked front below it
        assert computed_above_hit[False] and computed_above_hit[True]

    def test_200_net_sink_edit_identity(self):
        cache = MSRICache(maxsize=16384)
        fed = 0
        with contracts.checking():
            for t, opts in _differential_nets(200):
                # the sink nearest the root leaves the most subtrees clean
                sink = min(
                    (v for v in t.terminal_indices() if v != t.root),
                    key=lambda v: len(_root_path(t, v)),
                )
                term = t.node(sink).terminal
                edited = _with_terminal(
                    t, sink, resistance=term.resistance * 1.5
                )
                insert_repeaters_cached(t, TECH, opts, cache=cache)  # prime
                warm = insert_repeaters_cached(edited, TECH, opts, cache=cache)
                assert_identical(warm, insert_repeaters(edited, TECH, opts))
                assert warm.stats.nodes_processed > 0  # the sink's root path
                # the walk down the dirty path reaches every clean branch
                # point, so some front is unpacked exactly when one exists
                path = _root_path(t, sink)
                clean = [v for v in t.steiner_indices() if v not in path]
                assert (warm.stats.cache_hits >= 1) == bool(clean)
                fed += bool(clean)
        assert fed >= 50

    def test_installed_fronts_equal_cold_per_node(self):
        """Cold vs cache-fed engines agree front by front, not just at root."""
        t = random_topology(np.random.default_rng(7), n_terminals=6)
        cache = MSRICache()
        with contracts.checking():
            a = IncrementalMSRI(t, TECH, OPTS, cache=cache)
            a.solve()
            b = IncrementalMSRI(_driver_edited(t), TECH, OPTS, cache=cache)
            r = b.solve()
            assert r.stats.cache_hits >= 1
            # every front b holds was computed or unpacked by this solve
            assert len(b._fronts) == r.stats.nodes_processed + r.stats.cache_hits
            for v, front in b._fronts.items():
                contracts.verify_front_values(
                    front, a._fronts[v], context=f"node {v}"
                )

    def test_solve_tree_switches_to_a_net_sharing_subtrees(self):
        t = random_topology(np.random.default_rng(8), n_terminals=5)
        edited = _driver_edited(t)
        cache = MSRICache()
        with contracts.checking():
            eng = IncrementalMSRI(t, TECH, OPTS, cache=cache)
            full = eng.solve().stats.nodes_processed
            shared = eng.solve_tree(edited)
            assert shared.stats.cache_hits >= 1
            assert shared.stats.nodes_processed < full
            assert_identical(shared, insert_repeaters(edited, TECH, OPTS))
            back = eng.solve_tree(t)  # the first net's root suite answers
            assert back.stats.cache_hits == 1
            assert back.stats.nodes_processed == 0
            assert_identical(back, insert_repeaters(t, TECH, OPTS))


def _renumbered(tree):
    """The same net numbered in preorder, plus the old -> new index map.

    Preorder keeps every vertex's children in their original relative
    order, so every subtree signature is unchanged.
    """
    order = list(tree.dfs_preorder())
    new = {v: i for i, v in enumerate(order)}
    nodes = [dataclasses.replace(tree.node(v), index=i) for i, v in enumerate(order)]
    parents = [None if tree.parent(v) is None else new[tree.parent(v)] for v in order]
    return RoutingTree(nodes, parents, [tree.edge_length(v) for v in order]), new


def _count_root_set(monkeypatch):
    """Count calls to the DP's root evaluation."""
    calls = []
    original = msri._root_set

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(msri, "_root_set", counted)
    return calls


OPTION_SETS = [repeater_insertion_options, driver_sizing_options]


class TestRootSuiteCache:
    """The root suite is one more cache site: a repeat solve is one lookup."""

    @pytest.mark.parametrize("make_options", OPTION_SETS)
    def test_repeat_solve_is_one_root_lookup(self, monkeypatch, make_options):
        t = paper_instance(1, 5)
        opts = make_options()
        calls = _count_root_set(monkeypatch)
        cache = MSRICache()
        # contracts off: their cold differential would call _root_set too
        with contracts.checking(False):
            cold = insert_repeaters(t, TECH, opts)
            insert_repeaters_cached(t, TECH, opts, cache=cache)
            del calls[:]
            before = cache.stats()
            warm = insert_repeaters_cached(t, TECH, opts, cache=cache)
        assert calls == []
        after = cache.stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert after["stores"] == before["stores"]
        assert warm.tradeoff() == cold.tradeoff()
        assert [s.assignment() for s in warm.solutions] == [
            s.assignment() for s in cold.solutions
        ]
        assert [s.repeater_count() for s in warm.solutions] == [
            s.repeater_count() for s in cold.solutions
        ]
        # the stats of a root-child front hit, field for field
        (child,) = t.children(t.root)
        width = cold.stats.set_sizes[child]
        got = dataclasses.asdict(warm.stats)
        del got["runtime_seconds"]
        assert got == {
            "nodes_processed": 0,
            "solutions_generated": 0,
            "solutions_after_pruning": 0,
            "max_set_size": width,
            "max_segments": 0,
            "set_sizes": {child: width},
            "cache_hits": 1,
            "nodes_reused": len(t) - 1,
        }

    @pytest.mark.parametrize("make_options", OPTION_SETS)
    def test_renumbered_net_hits_with_its_own_indices(
        self, monkeypatch, make_options
    ):
        t = paper_instance(1, 5)
        other, new = _renumbered(t)
        assert [new[v] for v in range(len(t))] != list(range(len(t)))
        assert subtree_signatures(other)[other.root] == (
            subtree_signatures(t)[t.root]
        )
        # _domain_bound sums wire capacitance in index order, so the
        # unquantized c_max can differ in its last bits between numberings
        opts = make_options(quantize_bound=True)
        cache = MSRICache()
        with contracts.checking(False):
            insert_repeaters_cached(t, TECH, opts, cache=cache)
            calls = _count_root_set(monkeypatch)
            warm = insert_repeaters_cached(other, TECH, opts, cache=cache)
            assert calls == []
            cold = insert_repeaters(other, TECH, opts)
        assert warm.stats.nodes_processed == 0 and warm.stats.cache_hits == 1
        assert root_suite(warm) == root_suite(cold)
        with contracts.checking():
            assert_identical(
                insert_repeaters_cached(other, TECH, opts, cache=cache), cold
            )

    def test_root_key_is_domain_separated(self):
        t = paper_instance(1, 5)
        opts = repeater_insertion_options()
        sig = subtree_signatures(t)[t.root]
        fp = options_fingerprint(TECH, opts)
        c_max = _domain_bound(t, TECH, opts)
        assert root_key(sig, fp, c_max) != front_key(sig, fp, c_max)
        assert root_key(sig, fp, c_max) != root_key(sig, fp, c_max * 2.0)

    def test_steiner_root_keeps_its_error(self):
        t = y_net()
        parents = [t.parent(i) for i in range(len(t))]
        lengths = [t.edge_length(i) for i in range(len(t))]
        # re-root at the branch point by reversing the path above it
        v, prev, prev_len = t.steiner_indices()[0], None, 0.0
        while v is not None:
            nxt, nxt_len = parents[v], lengths[v]
            parents[v], lengths[v] = prev, prev_len
            v, prev, prev_len = nxt, v, nxt_len
        steiner_rooted = RoutingTree(list(t.nodes), parents, lengths)
        assert len(steiner_rooted.children(steiner_rooted.root)) > 1
        with pytest.raises(RuntimeError, match="rooted at a terminal"):
            insert_repeaters_cached(steiner_rooted, TECH, OPTS, cache=MSRICache())

    def test_engine_root_hit_then_edit(self):
        t = random_topology(np.random.default_rng(13), n_terminals=6)
        opts = MSRIOptions(library=LIB, quantize_bound=True)
        cache = MSRICache()
        with contracts.checking():
            IncrementalMSRI(t, TECH, opts, cache=cache).solve()
            eng = IncrementalMSRI(t, TECH, opts, cache=cache)
            hit = eng.solve()
            assert hit.stats.nodes_processed == 0
            assert hit.stats.cache_hits == 1
            assert eng._fronts == {}  # a root hit installs no front
            ei = [i for i in range(len(t)) if t.parent(i) is not None][-1]
            eng.set_edge_length(ei, t.edge_length(ei) + 100.0)
            # the quantized bound holds, so the untouched subtrees' stored
            # fronts answer the edited solve
            assert _domain_bound(eng.tree, TECH, opts) == _domain_bound(
                t, TECH, opts
            )
            edited = eng.solve()
            assert edited.stats.nodes_processed > 0
            assert edited.stats.cache_hits >= 1
            assert_identical(edited, insert_repeaters(eng.tree, TECH, opts))
            # the engine keeps every front it computed or installed from
            # the cache; each matches a cold engine's on the edited tree
            assert len(eng._fronts) == (
                edited.stats.nodes_processed + edited.stats.cache_hits
            )
            fresh = IncrementalMSRI(eng.tree, TECH, opts)
            fresh.solve()
            for v, front in eng._fronts.items():
                contracts.verify_front_values(
                    front, fresh._fronts[v], context=f"node {v}"
                )
